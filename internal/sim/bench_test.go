package sim

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
)

// floodBenchHandler is the benchmark send pattern as one shared handler
// value: every node (or, with every > 1, every every-th node) sends
// fanout messages per round to deterministic targets. Per-node identity
// comes from the Ctx, so spawning a node costs no closure or boxed
// payload — the per-node footprint the n=1M rows measure is the
// kernel's own (slot + Ctx + recycled buffers).
type floodBenchHandler struct {
	n, fanout, every int
	payload          any // one pre-boxed value shared by every send
}

func (h *floodBenchHandler) OnRound(ctx *Ctx, _ []Message) bool {
	idx := int(ctx.ID()) - 1
	if idx%h.every != 0 {
		return true
	}
	for j := 0; j < h.fanout; j++ {
		to := NodeID((idx+j*7+1)%h.n + 1)
		ctx.Send(to, h.payload, 32)
	}
	return true
}

// floodNet builds a network of n nodes that each send fanout messages
// per round to deterministic targets, forever.
func floodNet(n, fanout, shards int) *Network {
	return benchNet(n, &floodBenchHandler{n: n, fanout: fanout, every: 1, payload: any(0)}, shards)
}

func benchNet(n int, h Handler, shards int) *Network {
	net := NewNetwork(Config{Seed: 1, Shards: shards, SizeHint: n})
	for i := 0; i < n; i++ {
		net.SpawnHandler(NodeID(i+1), h)
	}
	return net
}

// BenchmarkStep measures the per-round cost of the simulator kernel
// under a flood pattern (every node sends every round) and a sparse
// pattern (1-in-16 nodes send), the two regimes the experiment drivers
// live in. The flood rows extend to n=1M. Allocations per round must
// stay at zero in steady state: inbox and outbox buffers are recycled,
// and there is no sorting pass.
func BenchmarkStep(b *testing.B) {
	for _, bc := range []struct {
		name   string
		n      int
		fanout int
		every  int
	}{
		{"flood/n=1k", 1000, 4, 1},
		{"flood/n=10k", 10000, 4, 1},
		{"flood/n=100k", 100000, 4, 1},
		{"flood/n=1M", 1000000, 4, 1},
		{"sparse/n=1k", 1000, 4, 16},
		{"sparse/n=10k", 10000, 4, 16},
		{"sparse/n=100k", 100000, 4, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net := benchNet(bc.n, &floodBenchHandler{n: bc.n, fanout: bc.fanout, every: bc.every, payload: any(0)}, 0)
			net.DisableWorkLog()
			net.Run(2) // reach buffer steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.StopTimer()
			if bc.n >= 100000 {
				// Steady-state footprint with the network still alive:
				// live heap per node after a forced collection, plus the
				// process-wide peak-RSS high-water mark.
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc)/float64(bc.n), "liveB/node")
				if mb := readPeakRSSMB(); mb > 0 {
					b.ReportMetric(mb, "peakRSS-MB")
				}
			}
			net.Shutdown()
		})
	}
}

// BenchmarkStepSharded measures the sharded intra-round delivery path
// on the n=100k flood workload across worker counts. Results are
// byte-identical for every shard count (pinned by
// TestWorkLogByteIdentityAcrossShards); only wall time may differ, and
// only on multi-core machines — on a single core the extra outbox scans
// make sharding a net loss, which is why Shards defaults to 1.
func BenchmarkStepSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("flood/n=100k/shards=%d", shards), func(b *testing.B) {
			net := floodNet(100000, 4, shards)
			net.DisableWorkLog()
			net.Run(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.StopTimer()
			net.Shutdown()
		})
	}
}

// readPeakRSSMB returns the process's peak resident set size in MiB
// from /proc/self/status (VmHWM), or 0 where that is unavailable. It is
// a process-wide high-water mark — a coarse footprint note, not a
// per-benchmark measurement (bash perfbench/run.sh records the
// benchmark's own peak RSS per workload).
func readPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[1]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// BenchmarkStepAllocs isolates the allocation behavior of one steady
// -state round at n=1k flood, the case benchstat compares across
// revisions of the kernel. This is the nil-tracer path: it must stay at
// 0 allocs/op (TestNilTracerSteadyStateZeroAllocs asserts the same
// invariant in the regular test run).
func BenchmarkStepAllocs(b *testing.B) {
	net := floodNet(1000, 4, 0)
	net.DisableWorkLog()
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}

// BenchmarkStepTraced measures the same steady-state flood round with a
// counting tracer attached — the overhead of the observability hooks
// when enabled (perfbench's trace.overhead_share is the end-to-end
// counterpart, from bash perfbench/run.sh). After the first round the tracer path also reaches an
// allocation steady state: the distribution scratch buffers are reused.
func BenchmarkStepTraced(b *testing.B) {
	net := floodNet(1000, 4, 0)
	net.DisableWorkLog()
	net.SetTracer(&countingTracer{})
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}

func BenchmarkSpawnShutdown(b *testing.B) {
	for _, n := range []int{1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net := NewNetwork(Config{Seed: uint64(i)})
				for v := 0; v < n; v++ {
					net.SpawnHandler(NodeID(v+1), HandlerFunc(func(*Ctx, []Message) bool { return false }))
				}
				net.Run(1)
				net.Shutdown()
			}
		})
	}
}
