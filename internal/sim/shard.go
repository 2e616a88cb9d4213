// Sharded intra-round execution. The compute (receive + handler
// execution) and send steps of a round are partitioned across the
// Config.Shards = S workers of the network's Pool (the driver goroutine
// acts as worker 0; S = 1 is the serial kernel, with no other worker).
//
// Determinism argument: canonical inbox order — (sender spawn order,
// send sequence) — is a property of the partition, not the schedule.
// In the send step every worker scans *all* outboxes in spawn order but
// appends only the messages whose receiver slot falls in its contiguous
// slot range; since each inbox is written by exactly one worker, which
// visits senders in the same spawn order the serial kernel does, every
// inbox ends up byte-identical for any S. Accounting is partitioned by
// contiguous sender-position ranges with per-shard partial sums merged
// in shard order (sums and maxes are associative, and sample slices
// concatenated in shard order equal the serial iteration order), and
// tracer drop events are buffered per shard and replayed by the driver
// in shard order, which again equals the serial call order. The compute
// step is partitioned by position range the same way; handlers run
// inline on the worker owning their node's position, touch only their
// own node's state plus round-constant shared structures (the id map
// and other slots' identity fields, which never mutate mid-round), and
// draw randomness from per-node generators, so the partition cannot
// change any node's behavior.
package sim

import "time"

const (
	phaseCompute = iota
	phaseSend
)

// dropEvent is a deferred Tracer.MessageDropped call, buffered by shard
// workers and replayed in canonical order by the driver.
type dropEvent struct {
	from, to NodeID
	bits     int
	reason   DropReason
}

// roundSums is one round's deterministic accounting: per worker while
// the round runs, merged across workers by Step. Every field is a sum,
// a max or an or, so merging in worker order reproduces the serial
// totals.
type roundSums struct {
	messages  int
	totalBits int64
	maxBits   int64
	anyHalted bool

	// deferred counts the accounting range's messages that the event
	// scheduler parked beyond the next round. A pure function of (seed,
	// round, edge) like the delay itself, so — unlike shardAcc's phase
	// wall times — it is deterministic and may flow into byte-compared
	// artifacts.
	deferred int64

	// rel holds the reliability activity (control-lane sends from the
	// sender range, node reports from the compute range).
	rel ReliabilityRoundStats
}

func (s *roundSums) add(o *roundSums) {
	s.messages += o.messages
	s.totalBits += o.totalBits
	s.maxBits = max(s.maxBits, o.maxBits)
	s.anyHalted = s.anyHalted || o.anyHalted
	s.deferred += o.deferred
	s.rel.add(&o.rel)
}

// shardAcc is one worker's per-round accumulator. The slices are reused
// round after round, so the kernel reaches an allocation steady state.
// The pad keeps adjacent accumulators on separate cache lines while
// workers write them concurrently.
type shardAcc struct {
	roundSums

	recvDrops    []dropEvent // blocked-receiver delivery-round drops, position order
	sendDrops    []dropEvent // send-step drops, sender position order
	dups         []dupEvent  // injected duplications, sender position order
	inboxSamples []int64
	bitsSamples  []int64

	// Phase wall times, collected when a ShardObserver is attached to a
	// network with more than one shard. These are the only
	// nondeterministic values a round produces; they reach tools solely
	// through the ShardObserver hook and must never enter byte-compared
	// output (trace.Recorder keeps them out of its flight ring and
	// JSONL/table bytes; see that package's tests).
	computeNS, sendNS int64

	_ [64]byte
}

func (a *shardAcc) reset() {
	a.roundSums = roundSums{}
	a.recvDrops = a.recvDrops[:0]
	a.sendDrops = a.sendDrops[:0]
	a.dups = a.dups[:0]
	a.inboxSamples = a.inboxSamples[:0]
	a.bitsSamples = a.bitsSamples[:0]
	a.computeNS, a.sendNS = 0, 0
}

// drop buffers a MessageDropped event for m in dst.
func (a *shardAcc) drop(dst *[]dropEvent, m *Message, reason DropReason) {
	*dst = append(*dst, dropEvent{from: m.From, to: m.To, bits: m.Bits, reason: reason})
}

// kernelRunner is the Network as the Pool's ShardRunner. The conversion
// keeps RunShard out of Network's exported method set, and the Pool
// holds it only for the duration of one Run, so the parked workers
// never keep a network reachable.
type kernelRunner Network

// RunShard executes one worker's share of a phase. Position ranges
// (spawn order) drive the compute step and the accounting half of the
// send step; slot ranges drive the delivery half. Both are fixed for
// the duration of a round (spawn and reap happen between rounds).
func (k *kernelRunner) RunShard(phase, w int) {
	n := (*Network)(k)
	shards := n.pool.shards
	var t0 time.Time
	timed := n.shardObs != nil && shards > 1
	if timed {
		t0 = time.Now()
	}
	acc := &n.acc[w]
	plo, phi := Chunk(len(n.order), shards, w)
	switch phase {
	case phaseCompute:
		acc.reset()
		n.computeRange(plo, phi, acc)
		if timed {
			acc.computeNS = time.Since(t0).Nanoseconds()
		}
	case phaseSend:
		slo, shi := Chunk(len(n.slots), shards, w)
		n.sendRange(plo, phi, int32(slo), int32(shi), acc)
		if timed {
			acc.sendNS = time.Since(t0).Nanoseconds()
		}
	}
}

// mergeShards sums the workers' accumulators and, with a tracer
// attached, replays their buffered events in worker order. Worker
// ranges are contiguous in the serial iteration order, so concatenation
// reproduces the exact serial tracer call sequence: all delivery-round
// drops in receiver position order, then all send-step drops in sender
// position order, then the injected duplications.
func (n *Network) mergeShards() (sum roundSums) {
	for w := range n.acc {
		sum.add(&n.acc[w].roundSums)
	}
	tr := n.tracer
	if tr == nil {
		return sum
	}
	for w := range n.acc {
		for _, d := range n.acc[w].recvDrops {
			tr.MessageDropped(n.round, d.reason, d.from, d.to, d.bits)
		}
	}
	for w := range n.acc {
		for _, d := range n.acc[w].sendDrops {
			tr.MessageDropped(n.round, d.reason, d.from, d.to, d.bits)
		}
	}
	if n.faultObs != nil {
		for w := range n.acc {
			for _, d := range n.acc[w].dups {
				n.faultObs.MessageDuplicated(n.round, d.from, d.to, d.bits, d.copies)
			}
		}
	}
	for w := range n.acc {
		n.traceInbox = append(n.traceInbox, n.acc[w].inboxSamples...)
		n.traceBits = append(n.traceBits, n.acc[w].bitsSamples...)
	}
	if n.shardObs != nil && len(n.acc) > 1 {
		for w := range n.acc {
			a := &n.acc[w]
			n.shardObs.ShardRound(n.round, w, a.computeNS/1e3, a.sendNS/1e3)
		}
	}
	return sum
}
