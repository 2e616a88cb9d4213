package sim

import (
	"sync/atomic"
	"testing"
)

// stateOf returns the dense slot state backing a live node — a test
// helper for the white-box buffer assertions. The pointer is only valid
// until the next SpawnHandler (the node table may grow).
func (n *Network) stateOf(id NodeID) *nodeState {
	return &n.slots[n.nodes[id]]
}

// TestDroppedMessagesDoNotLeak is the regression test for the old
// leftover-mailbox hazard: messages addressed to blocked or departed
// nodes must be dropped promptly — the receiver-side buffers are
// truncated and their payload references zeroed, and departed nodes
// leave no bookkeeping behind.
func TestDroppedMessagesDoNotLeak(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	payload := "heavy payload"
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() <= 6 {
			ctx.Send(2, payload, 8)
			ctx.Send(3, payload, 8)
		}
		return ctx.Round() < 7
	}))
	var delivered atomic.Int64
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		delivered.Add(int64(len(inbox)))
		return ctx.Round() < 8
	}))
	net.SpawnHandler(3, HandlerFunc(func(*Ctx, []Message) bool { return false })) // departs after round 1

	net.Step() // round 1: first sends go out; node 3 departs
	if net.Exists(3) {
		t.Fatal("node 3 should have departed")
	}
	if len(net.nodes) != 2 {
		t.Fatalf("nodes map holds %d entries after a departure, want 2", len(net.nodes))
	}
	// Node 2 is blocked in round 2, its delivery round: the pending
	// inbox must be dropped, not deferred.
	net.SetBlocked(map[NodeID]bool{2: true})
	net.Step()
	st := net.stateOf(2)
	for _, box := range st.inbox {
		if len(box) != 0 {
			t.Fatalf("blocked node kept %d pending messages", len(box))
		}
		// The dropped entries must have been zeroed so the payloads are
		// collectable even while the buffer capacity is retained.
		full := box[:cap(box)]
		for i := range full {
			if full[i].Payload != nil {
				t.Fatalf("dropped message %d still references its payload", i)
			}
		}
	}
	net.Run(6)
	net.Shutdown()
	// Node 1 sends in rounds 1..6. The round-1 send is dropped at
	// delivery (receiver blocked in round 2) and the round-2 send is
	// dropped at send time (receiver blocked in the send round); the
	// remaining four arrive in rounds 4..7.
	if delivered.Load() != 4 {
		t.Fatalf("delivered %d messages, want 4", delivered.Load())
	}
	if net.NumAlive() != 0 {
		t.Fatalf("%d nodes alive after shutdown", net.NumAlive())
	}
	if len(net.nodes) != 0 {
		t.Fatalf("nodes map holds %d entries after shutdown, want 0", len(net.nodes))
	}
}

// TestKilledNodeBuffersReleased checks that killing a node removes all
// of its network-side state in the same round.
func TestKilledNodeBuffersReleased(t *testing.T) {
	net := NewNetwork(Config{Seed: 2})
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		ctx.Send(2, "x", 4)
		return true
	}))
	net.SpawnHandler(2, HandlerFunc(func(*Ctx, []Message) bool { return true }))
	net.Step()
	net.Kill(2)
	net.Step()
	if net.Exists(2) || len(net.nodes) != 1 {
		t.Fatalf("killed node still tracked: exists=%v nodes=%d", net.Exists(2), len(net.nodes))
	}
	// Sends to the dead id must keep being dropped without error.
	net.Run(3)
	net.Shutdown()
}

// TestInboxBufferReuse pins the Layer-2 property the benchmarks rely
// on: in steady state the network recycles each node's inbox buffers
// instead of allocating fresh ones every round.
func TestInboxBufferReuse(t *testing.T) {
	net := NewNetwork(Config{Seed: 3})
	const rounds = 32
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		ctx.Send(2, ctx.Round(), 8)
		return true
	}))
	net.SpawnHandler(2, HandlerFunc(func(*Ctx, []Message) bool { return true }))
	net.Run(3) // populate both buffers
	st := net.stateOf(2)
	c0, c1 := cap(st.inbox[0]), cap(st.inbox[1])
	if c0 == 0 || c1 == 0 {
		t.Fatalf("expected both inbox buffers populated, caps %d/%d", c0, c1)
	}
	net.Run(rounds)
	if cap(st.inbox[0]) != c0 || cap(st.inbox[1]) != c1 {
		t.Fatalf("inbox buffers reallocated: caps %d/%d -> %d/%d",
			c0, c1, cap(st.inbox[0]), cap(st.inbox[1]))
	}
	net.Shutdown()
}
