package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// streamTracer serializes every tracer call, in call order, one line
// per event: lifecycle, blocking, the drop reasons, injected
// duplications, scheduler deferrals and round stats.
type streamTracer struct{ b strings.Builder }

func (t *streamTracer) RoundStart(round, alive, blocked int) {
	fmt.Fprintf(&t.b, "start %d alive=%d blocked=%d\n", round, alive, blocked)
}
func (t *streamTracer) RoundEnd(s RoundStats) { fmt.Fprintf(&t.b, "end %+v\n", s) }
func (t *streamTracer) NodeSpawned(round int, id NodeID) {
	fmt.Fprintf(&t.b, "spawn %d %d\n", round, id)
}
func (t *streamTracer) NodeKilled(round int, id NodeID) {
	fmt.Fprintf(&t.b, "kill %d %d\n", round, id)
}
func (t *streamTracer) NodeBlocked(round int, id NodeID) {
	fmt.Fprintf(&t.b, "block %d %d\n", round, id)
}
func (t *streamTracer) MessageDropped(round int, reason DropReason, from, to NodeID, bits int) {
	fmt.Fprintf(&t.b, "drop %d %s %d->%d bits=%d\n", round, reason, from, to, bits)
}
func (t *streamTracer) MessageDuplicated(round int, from, to NodeID, bits, copies int) {
	fmt.Fprintf(&t.b, "dup %d %d->%d bits=%d copies=%d\n", round, from, to, bits, copies)
}
func (t *streamTracer) RoundDeferred(round, deferred int) {
	fmt.Fprintf(&t.b, "deferred %d %d\n", round, deferred)
}

// kernelGoldenCases are the three configurations the kernel golden pins:
// the synchronous kernel, the synchronous kernel under fault injection,
// and the event scheduler with latency spread under fault injection.
var kernelGoldenCases = []struct {
	name string
	lat  Latency
	inj  bool
}{
	{"sync", Latency{}, false},
	{"sync-inject", Latency{}, true},
	{"async-inject", Latency{Kind: LatencyUniform, A: 0.5, B: 2.0}, true},
}

// kernelTranscript runs churnScenario's workload in one golden
// configuration and renders its work log, ordered tracer stream and
// deferral total as text.
func kernelTranscript(shards int, lat Latency, inj bool) string {
	net := NewNetwork(Config{Seed: 42, Shards: shards, Latency: lat})
	tr := &streamTracer{}
	net.SetTracer(tr)
	if inj {
		net.SetInjector(hashInjector{})
	}
	runChurnScenario(net)
	var out strings.Builder
	for _, w := range net.Work() {
		line, err := json.Marshal(w)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&out, "work %s\n", line)
	}
	out.WriteString(tr.b.String())
	fmt.Fprintf(&out, "deferred-total %d\n", net.DeferredMessages())
	return out.String()
}

// TestKernelGolden pins the kernel's observable behavior to a committed
// transcript: the work log plus the full ordered tracer stream of
// churnScenario, in each golden configuration, at one and four shards.
// The shard-invariance tests compare the kernel with itself; this one
// compares it with a recorded expectation. Regenerate with
// go test ./internal/sim -run TestKernelGolden -update.
func TestKernelGolden(t *testing.T) {
	for _, c := range kernelGoldenCases {
		path := filepath.Join("testdata", "kernel_"+c.name+".txt")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(kernelTranscript(1, c.lat, c.inj)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		for _, shards := range []int{1, 4} {
			if got := kernelTranscript(shards, c.lat, c.inj); got != string(want) {
				t.Fatalf("%s shards=%d: kernel transcript differs from %s:\n%s", c.name, shards, path, got)
			}
		}
	}
}
