package sim

import "testing"

// TestLookupCacheSlotReuse guards the per-Ctx id→slot cache against
// slot recycling: after a cached receiver dies and its dense slot is
// reused by a freshly spawned node with a different id, sends to the
// dead id must be absorbed — never delivered to the slot's new
// occupant — and sends to the new id must reach it.
func TestLookupCacheSlotReuse(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})

	// Sender 1 sends to id 2 every round (priming its lookup cache with
	// id 2's slot), and to id 3 once that node exists.
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		ctx.Send(2, "to-dead", 8)
		ctx.Send(3, "to-new", 8)
		return true
	}))
	var victimGot, reuserGot []string
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		for _, m := range inbox {
			victimGot = append(victimGot, m.Payload.(string))
		}
		return true
	}))

	net.Step() // round 1: sends queued, cache primed
	net.Step() // round 2: node 2 receives
	if len(victimGot) != 1 || victimGot[0] != "to-dead" {
		t.Fatalf("victim inbox before kill = %v", victimGot)
	}

	victimSlot := net.nodes[2]
	net.Kill(2)
	net.Step() // node 2 absorbs its final round, then its slot is freed
	net.SpawnHandler(3, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		for _, m := range inbox {
			reuserGot = append(reuserGot, m.Payload.(string))
		}
		return true
	}))
	if got := net.nodes[3]; got != victimSlot {
		t.Fatalf("test premise broken: node 3 got slot %d, want recycled slot %d", got, victimSlot)
	}

	for i := 0; i < 3; i++ {
		net.Step()
	}
	net.Shutdown()

	if len(victimGot) != 1 {
		t.Fatalf("dead node received after death: %v", victimGot)
	}
	for _, p := range reuserGot {
		if p != "to-new" {
			t.Fatalf("slot reuser received a message addressed to the dead id: %v", reuserGot)
		}
	}
	if len(reuserGot) == 0 {
		t.Fatal("slot reuser received nothing; sends to the new id were lost")
	}
}

// TestShutdownAndKillFreeAdapters is the teardown leak audit: a node's
// slot returns to the free list when its handler returns false, when it
// is killed, and at Shutdown, and the recycled slots are reused by later
// spawns instead of growing the node table.
func TestShutdownAndKillFreeAdapters(t *testing.T) {
	net := NewNetwork(Config{Seed: 4})
	const n = 60
	spawn := func(base int) {
		for i := 0; i < n; i++ {
			idx := i
			net.SpawnHandler(NodeID(base+i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
				ctx.Send(NodeID(base+(idx+1)%n+1), nil, 8)
				return idx >= 20 || ctx.Round() < 3 // first 20 depart in round 3
			}))
		}
	}
	spawn(0)
	net.Run(3)
	if got := len(net.free); got != 20 {
		t.Fatalf("after voluntary departures: %d free slots, want 20", got)
	}
	for id := NodeID(21); id <= 30; id++ {
		net.Kill(id)
	}
	net.Step()
	if got := len(net.free); got != 30 {
		t.Fatalf("after kills: %d free slots, want 30", got)
	}
	if got := len(net.nodes); got != n-30 {
		t.Fatalf("after kills: %d ids tracked, want %d", got, n-30)
	}
	net.Shutdown()
	if len(net.free) != n || len(net.nodes) != 0 || net.NumAlive() != 0 {
		t.Fatalf("after Shutdown: %d free slots of %d, %d ids tracked, %d alive",
			len(net.free), len(net.slots), len(net.nodes), net.NumAlive())
	}
	for s := range net.slots {
		if st := &net.slots[s]; st.live || st.h != nil || st.ctx != nil {
			t.Fatalf("slot %d still holds its departed node after Shutdown", s)
		}
	}
	spawn(n)
	if len(net.slots) != n || len(net.free) != 0 {
		t.Fatalf("respawn grew the node table to %d slots (%d free), want %d reused",
			len(net.slots), len(net.free), n)
	}
}
