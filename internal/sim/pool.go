// Pool is a persistent bulk-synchronous worker pool that partitions
// phases of deterministic work across S workers (the caller's goroutine
// acts as worker 0). The kernel runs every round's compute and send
// steps on one, and the §5/§6 overlay stacks drive their per-group and
// per-subcube rounds through one, all under the same determinism
// contract: workers own contiguous index ranges,
// write only state owned by their range plus per-worker accumulators,
// and the driver merges accumulators in worker order — which equals
// the serial iteration order because the ranges are contiguous.
package sim

import (
	"runtime"
	"sync"
)

// ShardRunner executes one worker's share of a phase. Implementations
// partition their index space with Chunk and must not write state owned
// by another worker's range.
type ShardRunner interface {
	RunShard(phase, w int)
}

// Pool fans phases out to Shards workers. Workers 1..S-1 are parked
// goroutines woken per phase; worker 0 runs on the goroutine calling
// Run, so a 1-shard pool spawns nothing. Run performs no allocations,
// keeping pooled callers at 0 allocs/round in steady state.
//
// The parked goroutines reference only the Pool, never the runner —
// the runner is attached for the duration of one Run call — so an
// unreferenced owner (and its pool, once Close runs or the owner's
// finalizer fires) can be collected even when Close was never called.
type Pool struct {
	shards int
	wake   []chan int
	wg     sync.WaitGroup
	runner ShardRunner
	closed bool
}

// NewPool returns a pool of the given width (clamped to [1, 64]).
func NewPool(shards int) *Pool {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	p := &Pool{shards: shards, wake: make([]chan int, shards-1)}
	for w := 1; w < shards; w++ {
		ch := make(chan int)
		p.wake[w-1] = ch
		go func(w int, ch chan int) {
			for phase := range ch {
				p.runner.RunShard(phase, w)
				p.wg.Done()
			}
		}(w, ch)
	}
	return p
}

// Shards returns the worker count.
func (p *Pool) Shards() int { return p.shards }

// Run executes one phase: every worker calls r.RunShard(phase, w) for
// its own w, and Run returns when all are done. The channel sends
// publish the caller's writes to the workers; wg.Wait publishes the
// workers' writes back. A closed pool runs every worker's share in turn
// on the caller: results never depend on which goroutine ran a share.
func (p *Pool) Run(r ShardRunner, phase int) {
	if p.shards == 1 || p.closed {
		for w := 0; w < p.shards; w++ {
			r.RunShard(phase, w)
		}
		return
	}
	p.runner = r
	p.wg.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- phase
	}
	r.RunShard(phase, 0)
	p.wg.Wait()
	p.runner = nil
}

// Close stops the parked workers. Idempotent; Run still works
// afterwards, serially.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.wake {
		close(ch)
	}
}

// Chunk splits [0, total) into contiguous per-worker ranges; it is the
// partition every ShardRunner should use so accumulator merges in
// worker order reproduce the serial iteration order.
func Chunk(total, shards, w int) (lo, hi int) {
	return total * w / shards, total * (w + 1) / shards
}

// DefaultShards resolves a configured shard count the way the kernel
// does: 0 consults the OVERLAYNET_SHARDS environment variable, then 1;
// the result is clamped to [1, 64].
func DefaultShards(cfg int) int {
	if cfg == 0 {
		cfg = envShards()
	}
	if cfg < 1 {
		cfg = 1
	}
	if cfg > maxShards {
		cfg = maxShards
	}
	return cfg
}

// FinalizePool arms a GC cleanup on owner that closes the pool when
// the owner becomes unreachable without an explicit Close — the safety
// net for short-lived networks created by sweeps and tests. The parked
// workers hold no reference to the owner, so reachability is decided
// by the owner's other referents alone; unlike a finalizer, the cleanup
// also lets an owner that references itself (a kernel Network, through
// its nodes' Ctx values) be collected.
func FinalizePool[T any](owner *T, p *Pool) {
	if p == nil || p.shards == 1 {
		return
	}
	runtime.AddCleanup(owner, func(p *Pool) { p.Close() }, p)
}
