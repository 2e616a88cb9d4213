package splitmerge

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	n0      int // default 2048
	spec    fault.Spec
	lat     sim.Latency
	corrupt bool // CorruptState every epoch, then RepairBalance+RepairMembership
}

// goldenScenarios pin the corner cases of the §6 pipeline, every one
// under churn: message faults with crashes, a partition window (open at
// one measured round), the latency deadline, and state corruption with
// repair. The scenarios past the first two run at n0 = 1024 to keep the
// checker's cost down.
var goldenScenarios = []scenario{
	{name: "dos"},
	{name: "dos-faults", spec: fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01, Crash: 0.02, Restart: 2}},
	{name: "partition", n0: 1024, spec: fault.Spec{Seed: 11, PartK: 2, PartFrom: 20, PartWin: 1}},
	{name: "latency", n0: 1024, lat: sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2.5}},
	{name: "corrupt", n0: 1024, corrupt: true},
}

// driveDigest runs a fixed adversarial schedule — DoS blocking and
// churn plus the scenario's faults, latency or corruption — and
// fingerprints every observable output: each round's report, the
// knowledge components and a snapshot hash after every epoch and at
// every open partition round, the final stats, the label tree, and the
// group partition. Any execution-order leak in the sharded round
// pipeline shows up as a digest mismatch.
func driveDigest(shards int, withObs bool, sc scenario) string {
	n0 := sc.n0
	if n0 == 0 {
		n0 = 2048
	}
	nw := New(Config{Seed: 42, N0: n0, MeasureEvery: 2, Shards: shards})
	defer nw.Close()
	if withObs {
		reg := obs.NewRegistry(1)
		nw.SetMetrics(reg.StackMetrics("splitmerge"))
		nw.SetAudit(audit.NewEngine("scale-identity", 9, 3, nil))
	}
	nw.SetFaults(sc.spec)
	nw.SetLatency(sc.lat)
	adv := &dos.Random{Fraction: 0.1, R: rng.New(7), IDs: nw.Members}
	buf := &dos.Buffer{Lateness: 2}
	churn := rng.New(99)
	var b strings.Builder
	for e := 0; e < 3; e++ {
		members := nw.Members()
		for k := 0; k < 16; k++ {
			nw.Join(members[churn.Intn(len(members))])
		}
		for k := 0; k < 16; k++ {
			id := members[churn.Intn(len(members))]
			if nw.superOf(id) >= 0 {
				nw.Leave(id)
			}
		}
		er := nw.EpochRounds()
		for i := 0; i < er; i++ {
			for _, rep := range nw.Run(adv, buf, 1) {
				fmt.Fprintf(&b, "%+v\n", rep)
			}
			if sc.corrupt && i == 3 {
				// pick%2 alternates between the two corruption kinds.
				pick := rng.New(uint64(100+e)).Uint64()/2*2 + uint64(e%2)
				fmt.Fprintf(&b, "corrupt: %s\n", nw.CorruptState(pick))
				fmt.Fprintf(&b, "corrupt components: %v\n", componentSizes(nw.KnowledgeComponents()))
				fmt.Fprintf(&b, "repair: %d %d\n", nw.RepairBalance(), nw.RepairMembership())
			}
			if sc.spec.Partitioned(nw.Round()) {
				fmt.Fprintf(&b, "components: %v snapshot: %016x\n",
					componentSizes(nw.KnowledgeComponents()), snapshotHash(nw.Snapshot()))
			}
		}
		fmt.Fprintf(&b, "components: %v snapshot: %016x\n",
			componentSizes(nw.KnowledgeComponents()), snapshotHash(nw.Snapshot()))
	}
	fmt.Fprintf(&b, "%+v\n%v\n%v\n", nw.StatsSnapshot(), nw.Labels(), nw.GroupSizes())
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
// Regenerate with go test ./internal/splitmerge -run TestGolden -update.
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

// TestByteIdenticalAcrossShards pins the §6 determinism contract: the
// sharded round pipeline must reproduce the serial execution exactly —
// same RNG draws, same queue orders, same fault-injection tuples, same
// split/merge decisions — at any worker count, with or without the
// observation layers attached.
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

// TestDeliveryGateDisablesDirectPath mirrors the supernode test: the
// §6 fast path must be off exactly when a delivery gate — injector,
// partition window, or latency deadline — exists, and the zero-spec /
// zero-spread configurations must leave no gate (the typed-nil
// interface trap).
func TestDeliveryGateDisablesDirectPath(t *testing.T) {
	nw := New(Config{Seed: 1, N0: 512, Shards: 1})
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

// gateDigest fingerprints a run under one delivery-gate configuration
// (see supernode's gateDigest) for the fast-path × faults × latency ×
// observability byte-identity matrix.
func gateDigest(shards int, withObs bool, spec fault.Spec, lat sim.Latency, corrupt bool) string {
	nw := New(Config{Seed: 42, N0: 1024, MeasureEvery: 2, Shards: shards})
	defer nw.Close()
	if withObs {
		reg := obs.NewRegistry(1)
		nw.SetMetrics(reg.StackMetrics("splitmerge"))
		nw.SetAudit(audit.NewEngine("gate-identity", 9, 3, nil))
	}
	nw.SetFaults(spec)
	nw.SetLatency(lat)
	adv := &dos.Random{Fraction: 0.1, R: rng.New(7), IDs: nw.Members}
	buf := &dos.Buffer{Lateness: 2}
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
	fmt.Fprintf(&b, "%+v\n%v\n%v\n", nw.StatsSnapshot(), nw.Labels(), nw.GroupSizes())
	return b.String()
}

// TestDirectPathGatingMatrix mirrors the supernode matrix: every gate
// axis compared across single-worker (direct when the gate is nil) and
// shards=8, with and without metrics+audit, plus §6-level
// sync-equivalence of the zero-spread latency model.
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
	base := gateDigest(1, false, fault.Spec{}, sim.Latency{}, false)
	zero := sim.Latency{Kind: sim.LatencyConst, A: 1}
	if got := gateDigest(1, false, fault.Spec{}, zero, false); got != base {
		t.Fatal("const:1 latency changed the direct-path bytes")
	}
	if got := gateDigest(8, false, fault.Spec{}, zero, false); got != base {
		t.Fatal("const:1 latency changed the sharded-pipeline bytes")
	}
	if got := gateDigest(1, false, fault.Spec{}, uni, false); got == base {
		t.Fatal("latency gate with spread had no observable effect")
	}
}

// TestBlockedMapNotAliased verifies Step copies the caller's blocked
// map into owned storage: mutating or reusing the map after Step
// returns must not rewrite the two-round blocked history it feeds.
func TestBlockedMapNotAliased(t *testing.T) {
	run := func(reuse bool) string {
		nw := New(Config{Seed: 5, N0: 512, MeasureEvery: 1})
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
// §6 Step path: once every arena has reached its high-water mark, no
// round may allocate except the assign phase (scratch plateau growth)
// and the commit phase (organic splits/merges clone group state, as
// the serial code did).
func TestStepAllocsSteadyState(t *testing.T) {
	nw := New(Config{Seed: 1, N0: 10000, MeasureEvery: -1})
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
		if d := m1.Mallocs - m0.Mallocs; d > 0 && phase != samplingRounds && phase != samplingRounds+5 {
			bad = append(bad, badRound{nw.Round(), phase, d})
		}
	}
	for _, r := range bad {
		t.Errorf("round %d (phase %d) allocated %d objects in steady state", r.round, r.phase, r.mallocs)
	}
}

// churnEpoch makes frac of the members leave and as many join through
// staying sponsors, as experiment E10 does.
func churnEpoch(nw *Network, r *rng.RNG, frac float64) {
	members := nw.Members()
	k := int(frac * float64(len(members)))
	gone := make(map[sim.NodeID]bool, k)
	for len(gone) < k {
		if id := members[r.Intn(len(members))]; !gone[id] {
			gone[id] = true
			nw.Leave(id)
		}
	}
	for j := 0; j < k; {
		if s := members[r.Intn(len(members))]; !gone[s] {
			nw.Join(s)
			j++
		}
	}
}

// TestSlotsBoundedUnderChurn runs 300 epochs of 12.5% leave/join churn
// and checks that the slot-indexed state tracks the live id span, not
// every id ever issued (which reaches N0 + 300·N0/8 = 38.5·N0). The
// retirement rule leaves the dead prefix below half the slots, plus a
// partial word, so after every commit slots < 2·(live span) + 128,
// where the live span runs from the lowest committed id to the
// highest issued one.
func TestSlotsBoundedUnderChurn(t *testing.T) {
	const n0 = 256
	nw := New(Config{Seed: 3, N0: n0, MeasureEvery: -1})
	defer nw.Close()
	r := rng.New(4)
	maxSlots := 0
	for e := 0; e < 300; e++ {
		churnEpoch(nw, r, 0.125)
		for nw.Epoch() == e {
			nw.Step(nil)
		}
		slots := len(nw.eng.NodeR)
		maxSlots = max(maxSlots, slots)
		span := int(nw.nextID - nw.Members()[0])
		if slots >= 2*span+128 {
			t.Fatalf("epoch %d: %d slots for a live span of %d ids", nw.Epoch(), slots, span)
		}
		for _, got := range []int{len(nw.eng.NodeGroup), len(nw.eng.ViewEpoch), 64 * len(nw.leaving)} {
			if got > slots+63 {
				t.Fatalf("epoch %d: slot state of length %d beside %d slots", nw.Epoch(), got, slots)
			}
		}
	}
	issued := int(nw.nextID) - 1
	t.Logf("ids issued %d, max slots %d, final slots %d", issued, maxSlots, len(nw.eng.NodeR))
	if maxSlots > 16*n0 {
		t.Fatalf("slot state reached %d slots, bound 16·N0 = %d", maxSlots, 16*n0)
	}
}

// TestBlockedCountsRetiredIDs pins Report.Blocked across slot
// retirement: it counts every blocked id in [1, highest issued] —
// retired, departed or live — and nothing outside that range, as when
// every id kept its slot.
func TestBlockedCountsRetiredIDs(t *testing.T) {
	nw := New(Config{Seed: 5, N0: 128, MeasureEvery: 1})
	defer nw.Close()
	r := rng.New(6)
	for e := 0; nw.eng.ID(0) == 1; e++ {
		if e > 200 {
			t.Fatal("200 epochs of churn never retired a slot")
		}
		churnEpoch(nw, r, 0.25)
		for nw.Epoch() == e {
			nw.Step(nil)
		}
	}
	issued := nw.nextID - 1
	base := nw.eng.ID(0) - 1
	retired := []sim.NodeID{1, base / 2, base}
	never := []sim.NodeID{0, issued + 1, issued + 1000}
	live := append([]sim.NodeID{issued}, nw.Members()[:10]...)
	blocked := map[sim.NodeID]bool{2: false, issued - 1: false} // named, not blocked
	for _, id := range slices.Concat(retired, never, live) {
		blocked[id] = true
	}
	departed := false
	for v := base + 1; v < issued && !departed; v++ {
		if nw.superOf(v) < 0 && !blocked[v] { // departed, slot not yet retired
			blocked[v] = true
			departed = true
		}
	}
	if !departed {
		t.Fatal("no departed id above the retired prefix to block")
	}
	const want = 3 + 1 + 11 // retired, departed, live
	if rep := nw.Step(blocked); rep.Blocked != want {
		t.Fatalf("Report.Blocked = %d, want %d (ids 1..%d, slots from id %d)", rep.Blocked, want, issued, base+1)
	}
}
