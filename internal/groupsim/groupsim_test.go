package groupsim

import (
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/sim"
)

// TestDeliveryGateDisablesDirectPath pins the direct fast path's gating
// invariant: the engine must hold no gate exactly when nothing can touch
// delivery, and any active injector, partition window, or latency
// deadline must force the outbox pipeline. The zero-spec and
// zero-spread cases guard the typed-nil interface trap — a *fault.
// Injector nil wrapped in a non-nil fault.Gate would disable the fast
// path forever (or, composed the other way, keep it on with faults
// attached). The engine here has no groups: Step still runs the gating
// decision.
func TestDeliveryGateDisablesDirectPath(t *testing.T) {
	e := New(Spec{Name: "test", Seed: 1, Shards: 1, EpochTail: 4}, nil)
	defer e.Close()
	e.Layout(2, []int{1, 1}, 0, 4)
	if e.inj != nil {
		t.Fatal("fresh engine has a delivery gate")
	}
	e.SetFaults(fault.Spec{Seed: 3, Crash: 0.1}) // crash-only: acts pre-generation, no gate
	if e.inj != nil {
		t.Fatal("message-fault-free spec produced a gate (typed-nil trap)")
	}
	e.SetFaults(fault.Spec{Seed: 3, PartK: 2, PartFrom: 2, PartWin: 4})
	if e.inj == nil {
		t.Fatal("partition window left no gate; direct path would reorder/deliver cut messages")
	}
	e.SetFaults(fault.Spec{})
	e.SetLatency(sim.Latency{Kind: sim.LatencyConst, A: 1})
	if e.inj != nil {
		t.Fatal("zero-spread latency (never late) must compose to no gate")
	}
	e.SetLatency(sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2})
	if e.inj == nil {
		t.Fatal("latency with spread > 1 round left no gate")
	}
	e.Step(nil)
	if e.direct {
		t.Fatal("direct fast path stayed on with a latency gate attached")
	}
	e.SetLatency(sim.Latency{})
	e.Step(nil)
	if !e.direct {
		t.Fatal("direct fast path did not re-engage after the gate detached")
	}
}
