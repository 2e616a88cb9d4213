package supernode

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/obs"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// scenario is one fixed adversarial schedule for driveDigest.
type scenario struct {
	name    string
	cfg     Config // N (default 2048), RandomLeader and K are taken from here
	spec    fault.Spec
	lat     sim.Latency
	corrupt bool // CorruptState every epoch, then RepairGroups
}

// goldenScenarios pin the corner cases of the §5 pipeline: message
// faults with crashes, a partition window (open at one measured round),
// the latency deadline, state corruption with repair, the RandomLeader
// rotation, and a non-power-of-two arity. The scenarios past the first
// two run at n = 1024 to keep the checker's cost down.
var goldenScenarios = []scenario{
	{name: "dos"},
	{name: "dos-faults", spec: fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01, Crash: 0.02, Restart: 2}},
	{name: "partition", cfg: Config{N: 1024}, spec: fault.Spec{Seed: 11, PartK: 2, PartFrom: 20, PartWin: 1}},
	{name: "latency", cfg: Config{N: 1024}, lat: sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2.5}},
	{name: "corrupt", cfg: Config{N: 1024}, corrupt: true},
	{name: "random-leader", cfg: Config{N: 1024, RandomLeader: true}},
	{name: "kary3", cfg: Config{N: 1024, K: 3}},
}

// driveDigest runs a fixed adversarial schedule — DoS blocking plus the
// scenario's faults, latency, corruption or configuration — and
// fingerprints every observable output: each round's report, the
// knowledge components and a snapshot hash at every epoch boundary and
// open partition round, the final stats, and the group partition. Any
// execution-order leak in the sharded round pipeline shows up as a
// digest mismatch.
func driveDigest(shards int, withObs bool, sc scenario) string {
	n := sc.cfg.N
	if n == 0 {
		n = 2048
	}
	nw := New(Config{Seed: 42, N: n, MeasureEvery: 2, Shards: shards,
		RandomLeader: sc.cfg.RandomLeader, K: sc.cfg.K})
	defer nw.Close()
	if withObs {
		reg := obs.NewRegistry(1)
		nw.SetMetrics(reg.StackMetrics("supernode"))
		nw.SetAudit(audit.NewEngine("scale-identity", 9, 3, nil))
	}
	nw.SetFaults(sc.spec)
	nw.SetLatency(sc.lat)
	adv := &dos.GroupIsolate{Fraction: 0.2, R: rng.New(7)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	var b strings.Builder
	er := nw.EpochRounds()
	for i := 0; i < 3*er+5; i++ {
		for _, rep := range nw.Run(adv, buf, 1) {
			fmt.Fprintf(&b, "%+v\n", rep)
		}
		if sc.corrupt && nw.Round()%er == 3 {
			// pick%3 cycles through the three corruption kinds.
			e := uint64(nw.Epoch())
			pick := rng.New(100+e).Uint64()/3*3 + e%3
			fmt.Fprintf(&b, "corrupt: %s\n", nw.CorruptState(pick))
			fmt.Fprintf(&b, "corrupt components: %v\n", componentSizes(nw.KnowledgeComponents()))
			fmt.Fprintf(&b, "repair: %d\n", nw.RepairGroups())
		}
		if nw.Round()%er == 0 || sc.spec.Partitioned(nw.Round()) {
			fmt.Fprintf(&b, "components: %v snapshot: %016x\n",
				componentSizes(nw.KnowledgeComponents()), snapshotHash(nw.Snapshot()))
		}
	}
	fmt.Fprintf(&b, "%+v\n%v\n", nw.StatsSnapshot(), nw.GroupSizes())
	return b.String()
}

// componentSizes lists the sizes of KnowledgeComponents' result.
func componentSizes(comps [][]int) []int {
	out := make([]int, len(comps))
	for i, c := range comps {
		out[i] = len(c)
	}
	return out
}

// snapshotHash is an FNV-1a hash of a snapshot's groups and adjacency.
func snapshotHash(s *dos.Snapshot) uint64 {
	h := fnv.New64a()
	for _, g := range s.Groups {
		fmt.Fprintln(h, g)
	}
	for _, a := range s.Adj {
		fmt.Fprintln(h, a)
	}
	return h.Sum64()
}

// TestGolden compares every scenario's digest, at one and four shards,
// with testdata/<scenario>.txt. The shard-identity tests compare the
// stack with itself; this one compares it with a recorded expectation.
// Regenerate with go test ./internal/supernode -run TestGolden -update.
func TestGolden(t *testing.T) {
	for _, sc := range goldenScenarios {
		path := filepath.Join("testdata", sc.name+".txt")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(driveDigest(1, false, sc)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		for _, shards := range []int{1, 4} {
			if got := driveDigest(shards, false, sc); got != string(want) {
				t.Fatalf("%s shards=%d: digest differs from %s:\n%s", sc.name, shards, path, got)
			}
		}
	}
}

// TestByteIdenticalAcrossShards pins the §5 determinism contract: the
// sharded round pipeline must reproduce the serial execution exactly —
// same RNG draws, same queue orders, same fault-injection tuples — at
// any worker count, with or without the observation layers attached.
func TestByteIdenticalAcrossShards(t *testing.T) {
	faults := goldenScenarios[1]
	want := driveDigest(1, false, faults)
	for _, shards := range []int{2, 8} {
		if got := driveDigest(shards, false, faults); got != want {
			t.Fatalf("shards=%d diverges from the serial execution", shards)
		}
	}
	if got := driveDigest(4, true, faults); got != want {
		t.Fatal("attaching metrics+audit perturbed the results")
	}
	// Without an injector, one worker takes the direct-delivery fast
	// path; the sharded outbox pipeline must match it byte for byte
	// (the DoS adversary still forces leaderless rounds, exercising
	// the direct path's queue-clearing prepass).
	direct := driveDigest(1, false, goldenScenarios[0])
	if got := driveDigest(8, false, goldenScenarios[0]); got != direct {
		t.Fatal("outbox pipeline diverges from the direct single-worker path")
	}
}

// TestDeliveryGateDisablesDirectPath checks the gating invariant of the
// shared engine's direct fast path (see groupsim's test of the same
// name) through this stack's own SetFaults, SetLatency and Step: any
// active injector, partition window or latency deadline must force the
// outbox pipeline, and the zero-spec / zero-spread configurations must
// leave no gate (the typed-nil interface trap).
func TestDeliveryGateDisablesDirectPath(t *testing.T) {
	nw := New(Config{Seed: 1, N: 512, Shards: 1})
	defer nw.Close()
	if nw.eng.Gated() {
		t.Fatal("fresh network has a delivery gate")
	}
	nw.SetFaults(fault.Spec{Seed: 3, Crash: 0.1}) // crash-only: acts pre-generation, no gate
	if nw.eng.Gated() {
		t.Fatal("message-fault-free spec produced a gate (typed-nil trap)")
	}
	nw.SetFaults(fault.Spec{Seed: 3, PartK: 2, PartFrom: 2, PartWin: 4})
	if !nw.eng.Gated() {
		t.Fatal("partition window left no gate; direct path would reorder/deliver cut messages")
	}
	nw.SetFaults(fault.Spec{})
	nw.SetLatency(sim.Latency{Kind: sim.LatencyConst, A: 1})
	if nw.eng.Gated() {
		t.Fatal("zero-spread latency (never late) must compose to no gate")
	}
	nw.SetLatency(sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2})
	if !nw.eng.Gated() {
		t.Fatal("latency with spread > 1 round left no gate")
	}
	nw.Step(nil)
	if nw.eng.Direct() {
		t.Fatal("direct fast path stayed on with a latency gate attached")
	}
	nw.SetLatency(sim.Latency{})
	nw.Step(nil)
	if !nw.eng.Direct() {
		t.Fatal("direct fast path did not re-engage after the gate detached")
	}
}

// gateDigest fingerprints a run under one delivery-gate configuration,
// optionally with metrics+audit attached and a mid-run state
// corruption, for the fast-path × faults × latency × observability
// byte-identity matrix.
func gateDigest(shards int, withObs bool, spec fault.Spec, lat sim.Latency, corrupt bool) string {
	nw := New(Config{Seed: 42, N: 1024, MeasureEvery: 2, Shards: shards})
	defer nw.Close()
	if withObs {
		reg := obs.NewRegistry(1)
		nw.SetMetrics(reg.StackMetrics("supernode"))
		nw.SetAudit(audit.NewEngine("gate-identity", 9, 3, nil))
	}
	nw.SetFaults(spec)
	nw.SetLatency(lat)
	adv := &dos.GroupIsolate{Fraction: 0.2, R: rng.New(7)}
	buf := &dos.Buffer{Lateness: nw.EpochRounds()}
	var b strings.Builder
	for _, rep := range nw.Run(adv, buf, nw.EpochRounds()+3) {
		fmt.Fprintf(&b, "%+v\n", rep)
	}
	if corrupt {
		fmt.Fprintf(&b, "corrupt: %s\n", nw.CorruptState(12345))
	}
	for _, rep := range nw.Run(adv, buf, nw.EpochRounds()) {
		fmt.Fprintf(&b, "%+v\n", rep)
	}
	fmt.Fprintf(&b, "%+v\n%v\n", nw.StatsSnapshot(), nw.GroupSizes())
	return b.String()
}

// TestDirectPathGatingMatrix runs every gate axis — partition-only,
// drop/dup, latency deadline, latency composed with faults, and state
// corruption (which is gate-free by design and must stay byte-identical
// ON the direct path) — comparing the single-worker execution against
// shards=8, with and without metrics+audit. It also pins §5-level
// sync-equivalence: a zero-spread latency model must not change a
// single byte relative to no latency model at all.
func TestDirectPathGatingMatrix(t *testing.T) {
	uni := sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2}
	cases := []struct {
		name    string
		spec    fault.Spec
		lat     sim.Latency
		corrupt bool
	}{
		{name: "partition-only", spec: fault.Spec{Seed: 11, PartK: 2, PartFrom: 5, PartWin: 6}},
		{name: "dropdup-only", spec: fault.Spec{Seed: 11, Drop: 0.03, Dup: 0.02}},
		{name: "latency-only", lat: uni},
		{name: "latency+faults", spec: fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01}, lat: uni},
		{name: "corrupt-direct", corrupt: true},
	}
	for _, c := range cases {
		want := gateDigest(1, false, c.spec, c.lat, c.corrupt)
		if got := gateDigest(8, false, c.spec, c.lat, c.corrupt); got != want {
			t.Fatalf("%s: shards=8 diverges from the single-worker execution", c.name)
		}
		if got := gateDigest(4, true, c.spec, c.lat, c.corrupt); got != want {
			t.Fatalf("%s: attaching metrics+audit perturbed the results", c.name)
		}
	}
	// Zero-spread latency composes away entirely: same bytes as no
	// latency model, on the direct path and the sharded pipeline alike.
	base := gateDigest(1, false, fault.Spec{}, sim.Latency{}, false)
	zero := sim.Latency{Kind: sim.LatencyConst, A: 1}
	if got := gateDigest(1, false, fault.Spec{}, zero, false); got != base {
		t.Fatal("const:1 latency changed the direct-path bytes")
	}
	if got := gateDigest(8, false, fault.Spec{}, zero, false); got != base {
		t.Fatal("const:1 latency changed the sharded-pipeline bytes")
	}
	// And a latency model with spread must actually change behavior,
	// otherwise the gate is vacuous.
	if got := gateDigest(1, false, fault.Spec{}, uni, false); got == base {
		t.Fatal("latency gate with spread had no observable effect")
	}
}

// TestBlockedMapNotAliased verifies Step copies the caller's blocked
// map into owned storage: mutating or reusing the map after Step
// returns must not rewrite the two-round blocked history it feeds.
func TestBlockedMapNotAliased(t *testing.T) {
	run := func(reuse bool) string {
		nw := New(Config{Seed: 5, N: 512, MeasureEvery: 1})
		defer nw.Close()
		m := map[sim.NodeID]bool{}
		var b strings.Builder
		for i := 0; i < 2*nw.EpochRounds(); i++ {
			if reuse {
				clear(m)
			} else {
				m = map[sim.NodeID]bool{}
			}
			for k := 0; k < 5; k++ {
				m[sim.NodeID((i*7+k*13)%512+1)] = true
			}
			fmt.Fprintf(&b, "%+v\n", nw.Step(m))
			if reuse {
				// Poison the map after Step: with an aliased
				// blockedHist[0] this rewrites the round's history.
				for k := range m {
					m[k] = false
				}
				m[sim.NodeID(i%512+1)] = true
			}
		}
		fmt.Fprintf(&b, "%+v", nw.StatsSnapshot())
		return b.String()
	}
	if run(false) != run(true) {
		t.Fatal("Step aliases the caller's blocked map; blockedHist must own its storage")
	}
}

// TestStepAllocsSteadyState is the allocation regression gate for the
// §5 Step path: once every arena has reached its high-water mark, no
// round may allocate except the assign/commit phases (which may still
// grow scratch toward a plateau).
func TestStepAllocsSteadyState(t *testing.T) {
	nw := New(Config{Seed: 1, N: 10000, MeasureEvery: -1})
	defer nw.Close()
	for i := 0; i < 6*nw.EpochRounds(); i++ {
		nw.Step(nil)
	}
	samplingRounds := 2 * (2*nw.eng.T + 1)
	var m0, m1 runtime.MemStats
	type badRound struct {
		round, phase int
		mallocs      uint64
	}
	var bad []badRound
	for i := 0; i < 2*nw.EpochRounds(); i++ {
		phase := nw.eng.Phase
		runtime.ReadMemStats(&m0)
		nw.Step(nil)
		runtime.ReadMemStats(&m1)
		if d := m1.Mallocs - m0.Mallocs; d > 0 && phase != samplingRounds && phase != samplingRounds+3 {
			bad = append(bad, badRound{nw.Round(), phase, d})
		}
	}
	for _, r := range bad {
		t.Errorf("round %d (phase %d) allocated %d objects in steady state", r.round, r.phase, r.mallocs)
	}
}
