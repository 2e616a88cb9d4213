package groupsim_test

import (
	"fmt"
	"slices"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/groupsim"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/splitmerge"
	"overlaynet/internal/supernode"
)

// diffScenario is one adversarial schedule for the checker
// differential test.
type diffScenario struct {
	name    string
	adv     string // "random" (30% of the members) or "isolate" (GroupIsolate)
	late    bool   // isolate: 2·EpochRounds-late buffer instead of 0-late
	spec    fault.Spec
	corrupt bool    // CorruptState every epoch, checked before and after repair
	churn   float64 // §6 only: leave/join fraction at every epoch start
	epochs  int
	n       int // default 256
}

var diffScenarios = []diffScenario{
	{name: "random", adv: "random", epochs: 6},
	{name: "isolate-0late", adv: "isolate", epochs: 6},
	{name: "isolate-late", adv: "isolate", late: true, epochs: 6},
	{name: "partition-k2", adv: "random", spec: fault.Spec{Seed: 3, PartK: 2, PartFrom: 10, PartWin: 40}, epochs: 5},
	{name: "partition-k3-0late", adv: "isolate", spec: fault.Spec{Seed: 4, PartK: 3, PartFrom: 5, PartWin: 30}, epochs: 5},
	{name: "corrupt", adv: "random", corrupt: true, epochs: 6},
	{name: "crash", adv: "isolate", late: true, spec: fault.Spec{Seed: 5, Crash: 0.05, Restart: 2, Drop: 0.02}, epochs: 6},
}

// stack is one overlay stack as the differential test steps it.
type stack struct {
	eng      *groupsim.Engine
	er       int
	step     func(blocked map[sim.NodeID]bool)
	round    func() int
	n        func() int
	members  func() []sim.NodeID
	snapshot func() *dos.Snapshot
	corrupt  func(pick uint64) string
	repair   func()
	churn    func(r *rng.RNG, frac float64)
}

// Both stacks leave Shards at 0, so OVERLAYNET_SHARDS sets the worker
// count.
func supernodeStack(sc diffScenario) *stack {
	nw := supernode.New(supernode.Config{Seed: 21, N: 256, MeasureEvery: -1})
	nw.SetFaults(sc.spec)
	return &stack{
		eng:      nw.Engine(),
		er:       nw.EpochRounds(),
		step:     func(b map[sim.NodeID]bool) { nw.Step(b) },
		round:    nw.Round,
		n:        func() int { return 256 },
		members:  func() []sim.NodeID { return ids(256) },
		snapshot: nw.Snapshot,
		corrupt:  nw.CorruptState,
		repair:   func() { nw.RepairGroups() },
	}
}

func splitmergeStack(sc diffScenario) *stack {
	n0 := sc.n
	if n0 == 0 {
		n0 = 256
	}
	nw := splitmerge.New(splitmerge.Config{Seed: 22, N0: n0, MeasureEvery: -1})
	nw.SetFaults(sc.spec)
	return &stack{
		eng:      nw.Engine(),
		er:       nw.EpochRounds(),
		step:     func(b map[sim.NodeID]bool) { nw.Step(b) },
		round:    nw.Round,
		n:        nw.N,
		members:  nw.Members,
		snapshot: nw.Snapshot,
		corrupt:  nw.CorruptState,
		repair:   func() { nw.RepairBalance(); nw.RepairMembership() },
		churn: func(r *rng.RNG, frac float64) {
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
		},
	}
}

func ids(n int) []sim.NodeID {
	out := make([]sim.NodeID, n)
	for i := range out {
		out[i] = sim.NodeID(i + 1)
	}
	return out
}

// tally counts what a differential run exercised, so a scenario that
// silently stopped covering its corner fails instead of passing empty.
type tally struct{ checks, disconnected, partitioned, multiComp int }

// checkAgainstOracle compares the union-find checker with the
// materialized knowledge graph: ConnectedNow with the oracle's
// restricted BFS, KnowledgeComponents with its components as a
// partition of the committed members.
func checkAgainstOracle(t *testing.T, e *groupsim.Engine, where string, tl *tally) {
	t.Helper()
	got, want := e.ConnectedNow(), e.OracleConnected()
	if got != want {
		t.Fatalf("%s: ConnectedNow = %v, oracle %v", where, got, want)
	}
	gc, wc := canonical(e.KnowledgeComponents()), canonical(e.OracleComponents())
	if !slices.EqualFunc(gc, wc, slices.Equal) {
		t.Fatalf("%s: KnowledgeComponents sizes %v, oracle %v", where, sizes(gc), sizes(wc))
	}
	tl.checks++
	if !got {
		tl.disconnected++
	}
	if len(gc) > 1 {
		tl.multiComp++
	}
}

// canonical sorts each component and orders components by first member.
func canonical(comps [][]int) [][]int {
	out := make([][]int, len(comps))
	for i, c := range comps {
		out[i] = slices.Sorted(slices.Values(c))
	}
	slices.SortFunc(out, func(a, b []int) int { return a[0] - b[0] })
	return out
}

func sizes(comps [][]int) []int {
	out := make([]int, len(comps))
	for i, c := range comps {
		out[i] = len(c)
	}
	slices.Sort(out)
	return out
}

// runDifferential steps a stack through the scenario and checks the
// checker against the oracle after every round and every corruption.
func runDifferential(t *testing.T, d *stack, sc diffScenario) tally {
	var tl tally
	lateness := 0
	if sc.late {
		lateness = 2 * d.er
	}
	buf := &dos.Buffer{Lateness: lateness}
	var adv dos.Adversary
	if sc.adv == "random" {
		adv = &dos.Random{Fraction: 0.3, R: rng.New(7), IDs: d.members}
	} else {
		adv = &dos.GroupIsolate{Fraction: 0.4, R: rng.New(8)}
	}
	churnR := rng.New(9)
	for ep := 0; ep < sc.epochs; ep++ {
		if sc.churn > 0 {
			d.churn(churnR, sc.churn)
		}
		for i := 0; i < d.er; i++ {
			buf.Publish(d.snapshot())
			next := d.round() + 1
			d.step(adv.SelectBlocked(next, d.n(), buf.View(next)))
			if sc.spec.Partitioned(d.round()) {
				tl.partitioned++
			}
			checkAgainstOracle(t, d.eng, fmt.Sprintf("round %d", d.round()), &tl)
			if sc.corrupt && i == 3 {
				pick := rng.New(uint64(100+ep)).Uint64()/6*6 + uint64(ep)
				what := d.corrupt(pick)
				checkAgainstOracle(t, d.eng, fmt.Sprintf("round %d after %q", d.round(), what), &tl)
				d.repair()
				checkAgainstOracle(t, d.eng, fmt.Sprintf("round %d after repair", d.round()), &tl)
			}
		}
	}
	return tl
}

// expectCoverage fails a scenario whose run never reached the corner
// it is named for.
func expectCoverage(t *testing.T, sc diffScenario, tl tally) {
	t.Helper()
	t.Logf("%d checks, %d disconnected, %d multi-component, %d partitioned rounds",
		tl.checks, tl.disconnected, tl.multiComp, tl.partitioned)
	if sc.spec.PartWin > 0 && (tl.partitioned == 0 || tl.multiComp == 0) {
		t.Fatal("partition window never split the knowledge graph")
	}
	if sc.adv == "isolate" && !sc.late && tl.disconnected == 0 {
		t.Fatal("0-late GroupIsolate never disconnected the overlay")
	}
}

// TestConnectedNowMatchesOracle steps both stacks under random and
// GroupIsolate blocking (0-late and late), partition windows with two
// and three components, state corruption with repair, and crash and
// drop schedules, and asserts after every round that the union-find
// checker agrees with the materialized knowledge graph.
func TestConnectedNowMatchesOracle(t *testing.T) {
	for _, sc := range diffScenarios {
		t.Run("supernode/"+sc.name, func(t *testing.T) {
			d := supernodeStack(sc)
			defer d.eng.Close()
			expectCoverage(t, sc, runDifferential(t, d, sc))
		})
		t.Run("splitmerge/"+sc.name, func(t *testing.T) {
			sc := sc
			sc.churn = 0.125
			d := splitmergeStack(sc)
			defer d.eng.Close()
			expectCoverage(t, sc, runDifferential(t, d, sc))
		})
	}
}

// TestConnectedNowMatchesOracleSlotRetirement runs §6 under long churn,
// so the engine retires the dead id prefix several times while stale
// history and blocked sets still name retired ids, and checks the
// checker against the oracle every round.
func TestConnectedNowMatchesOracleSlotRetirement(t *testing.T) {
	for _, late := range []bool{false, true} {
		sc := diffScenario{name: "churn", adv: "isolate", late: late, churn: 0.25, epochs: 50, n: 64}
		d := splitmergeStack(sc)
		tl := runDifferential(t, d, sc)
		d.eng.Close()
		expectCoverage(t, sc, tl)
		t.Logf("late=%v: id offset %d, %d slots", late, d.eng.Base(), len(d.eng.NodeR))
		if d.eng.Base() == 0 {
			t.Fatalf("late=%v: %d epochs of churn never retired a slot", late, sc.epochs)
		}
	}
}

// TestConnectedNowAllocsSteadyState is the allocation gate for the
// knowledge checker in both stacks: once its scratch has grown to the
// network's size, ConnectedNow allocates nothing — in every round of
// two epochs before a partition window and two epochs inside one,
// where the virtual vertices split by component. A blocked set every
// round keeps stale views, and with them older epochs, in the
// checker's input.
func TestConnectedNowAllocsSteadyState(t *testing.T) {
	const n = 2048
	type built struct {
		eng  *groupsim.Engine
		step func(map[sim.NodeID]bool)
		er   int
	}
	for _, st := range []struct {
		name  string
		build func() built
	}{
		{"supernode", func() built {
			nw := supernode.New(supernode.Config{Seed: 1, N: n, MeasureEvery: -1})
			return built{nw.Engine(), func(b map[sim.NodeID]bool) { nw.Step(b) }, nw.EpochRounds()}
		}},
		{"splitmerge", func() built {
			nw := splitmerge.New(splitmerge.Config{Seed: 1, N0: n, MeasureEvery: -1})
			return built{nw.Engine(), func(b map[sim.NodeID]bool) { nw.Step(b) }, nw.EpochRounds()}
		}},
	} {
		t.Run(st.name, func(t *testing.T) {
			b := st.build()
			e, stepWith, er := b.eng, b.step, b.er
			defer e.Close()
			from := 6 * er
			e.SetFaults(fault.Spec{Seed: 3, PartK: 3, PartFrom: from, PartWin: 2 * er})
			blocked := map[sim.NodeID]bool{}
			step := func() {
				clear(blocked)
				for k := 0; k < n/10; k++ {
					blocked[sim.NodeID((e.Round*131+k*37)%n+1)] = true
				}
				stepWith(blocked)
			}
			for e.Round < from-2*er {
				step()
				e.ConnectedNow()
			}
			// AllocsPerRun, not a single-call MemStats delta: the count
			// is process-wide, and the runtime's own goroutines (Go
			// 1.24's unique-map cleanup after every collection)
			// allocate a few objects now and then; averaged over 10
			// calls they round to 0. The warm-up call AllocsPerRun
			// makes absorbs the one-time growth when the window opens.
			for e.Round < from+2*er {
				step()
				if a := testing.AllocsPerRun(10, func() { e.ConnectedNow() }); a != 0 {
					t.Errorf("round %d (window open %v): ConnectedNow %v allocs/op", e.Round, e.Round >= from, a)
				}
			}
		})
	}
}
