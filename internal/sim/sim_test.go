package sim

import (
	"sync/atomic"
	"testing"
)

// TestPingPongDelivery spawns two nodes that ping-pong a counter and
// records what each receives.
func TestPingPongDelivery(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var got [2][]int
	for i := 0; i < 2; i++ {
		self := NodeID(i)
		peer := NodeID(1 - i)
		idx := i
		net.SpawnHandler(self, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			for _, m := range inbox {
				got[idx] = append(got[idx], m.Payload.(int))
			}
			ctx.Send(peer, 100+idx, 8)
			return ctx.Round() < 6
		}))
	}
	net.Run(6)
	net.Shutdown()
	for i := 0; i < 2; i++ {
		if len(got[i]) != 5 {
			t.Fatalf("node %d received %d messages, want 5", i, len(got[i]))
		}
		for _, v := range got[i] {
			if v != 100+(1-i) {
				t.Fatalf("node %d received %d", i, v)
			}
		}
	}
}

func TestMessagesTakeOneRound(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var recvRound atomic.Int64
	recvRound.Store(-1)
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 1 {
			ctx.Send(2, "x", 1)
		}
		return ctx.Round() < 2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		if len(inbox) > 0 {
			recvRound.Store(int64(ctx.Round()))
			return false
		}
		return true
	}))
	net.Run(3)
	net.Shutdown()
	if recvRound.Load() != 2 {
		t.Fatalf("message sent in round 1 delivered in round %d, want 2", recvRound.Load())
	}
}

func TestDeterministicInboxOrder(t *testing.T) {
	run := func() []uint64 {
		net := NewNetwork(Config{Seed: 7})
		var order []uint64
		for i := 2; i <= 9; i++ {
			id := NodeID(i)
			net.SpawnHandler(id, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
				if ctx.Round() == 1 {
					// Random extra messages to shake ordering.
					k := ctx.RNG().Intn(3) + 1
					for j := 0; j < k; j++ {
						ctx.Send(1, uint64(id)*100+uint64(j), 4)
					}
				}
				return ctx.Round() < 2
			}))
		}
		net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			for _, m := range inbox {
				order = append(order, m.Payload.(uint64))
			}
			return ctx.Round() < 2
		}))
		net.Run(2)
		net.Shutdown()
		return order
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("bad lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Order must be sorted by sender then sequence.
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("inbox not canonically sorted: %v", a)
		}
	}
}

func TestBlockedSenderDropsMessages(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var received atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 1 {
			ctx.Send(2, "x", 1)
		}
		return ctx.Round() < 2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		received.Add(int64(len(inbox)))
		return ctx.Round() < 4
	}))
	net.SetBlocked(map[NodeID]bool{1: true}) // sender blocked at send round
	net.Run(4)
	net.Shutdown()
	if received.Load() != 0 {
		t.Fatalf("blocked sender's message was delivered (%d)", received.Load())
	}
}

func TestBlockedReceiverAtSendRoundDrops(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var received atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 1 {
			ctx.Send(2, "x", 1)
		}
		return ctx.Round() < 2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		received.Add(int64(len(inbox)))
		return ctx.Round() < 4
	}))
	// Receiver blocked in the SEND round i: message must be dropped
	// even though the receiver is free in round i+1.
	net.SetBlocked(map[NodeID]bool{2: true})
	net.Run(4)
	net.Shutdown()
	if received.Load() != 0 {
		t.Fatalf("message to receiver blocked at send round was delivered (%d)", received.Load())
	}
}

func TestBlockedReceiverAtDeliveryRoundDrops(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var received atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 1 {
			ctx.Send(2, "x", 1)
		}
		return ctx.Round() < 2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		received.Add(int64(len(inbox)))
		return ctx.Round() < 4
	}))
	net.Step() // round 1: send happens, nobody blocked
	net.SetBlocked(map[NodeID]bool{2: true})
	net.Step() // round 2: delivery round, receiver blocked -> dropped
	net.Run(2)
	net.Shutdown()
	if received.Load() != 0 {
		t.Fatalf("message to receiver blocked at delivery round was delivered (%d)", received.Load())
	}
}

func TestUnblockedDeliveryUnderOtherBlocking(t *testing.T) {
	// Blocking node 3 must not disturb 1 -> 2 traffic.
	net := NewNetwork(Config{Seed: 1})
	var received atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 1 {
			ctx.Send(2, "x", 1)
		}
		return ctx.Round() < 2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		received.Add(int64(len(inbox)))
		return ctx.Round() < 4
	}))
	net.SpawnHandler(3, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		return ctx.Round() < 4
	}))
	net.SetBlocked(map[NodeID]bool{3: true})
	net.Step()
	net.SetBlocked(map[NodeID]bool{3: true})
	net.Step()
	net.Run(2)
	net.Shutdown()
	if received.Load() != 1 {
		t.Fatalf("expected exactly 1 delivery, got %d", received.Load())
	}
}

func TestBlockedNodeStillComputes(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var steps atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		steps.Add(1)
		return ctx.Round() < 5
	}))
	for i := 0; i < 4; i++ {
		net.SetBlocked(map[NodeID]bool{1: true})
		net.Step()
	}
	net.Shutdown()
	if steps.Load() != 4 {
		t.Fatalf("blocked node computed %d steps, want 4", steps.Load())
	}
}

func TestNodeLeavesWhenProcReturns(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		return ctx.Round() < 2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		return ctx.Round() < 6
	}))
	net.Step()
	net.Step()
	if net.Exists(1) {
		t.Fatal("node 1 should have left")
	}
	if !net.Exists(2) {
		t.Fatal("node 2 should still exist")
	}
	if net.NumAlive() != 1 {
		t.Fatalf("NumAlive = %d, want 1", net.NumAlive())
	}
	net.Shutdown()
}

func TestMessageToDepartedNodeDropped(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		return ctx.Round() < 2 // leaves at the end of round 2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 3 {
			ctx.Send(1, "late", 1)
		}
		return ctx.Round() < 4
	}))
	net.Run(4) // must not panic or deadlock
	net.Shutdown()
}

func TestKill(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var steps atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		steps.Add(1)
		return true
	}))
	net.Step()
	net.Step()
	net.Kill(1)
	net.Step()
	if net.Exists(1) {
		t.Fatal("killed node still exists")
	}
	got := steps.Load()
	if got != 2 {
		t.Fatalf("killed node computed %d steps, want 2", got)
	}
}

func TestDuplicateSpawnPanics(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	stay := HandlerFunc(func(*Ctx, []Message) bool { return true })
	net.SpawnHandler(1, stay)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate spawn did not panic")
		}
		net.Shutdown()
	}()
	net.SpawnHandler(1, stay)
}

func TestWorkAccounting(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 1 {
			ctx.Send(2, "a", 10)
		}
		return true
	}))
	net.SpawnHandler(2, HandlerFunc(func(*Ctx, []Message) bool { return true }))
	net.Run(2)
	net.Shutdown()
	w := net.Work()
	if len(w) < 2 {
		t.Fatalf("work log has %d rounds", len(w))
	}
	// Round 1: node 1 sends 10 bits. Round 2: node 2 receives 10 bits.
	if w[0].TotalBits != 10 || w[0].Messages != 1 {
		t.Fatalf("round 1 work = %+v", w[0])
	}
	if w[1].TotalBits != 10 {
		t.Fatalf("round 2 work = %+v", w[1])
	}
	if w[0].MaxNodeBits != 10 || w[1].MaxNodeBits != 10 {
		t.Fatalf("max bits wrong: %+v %+v", w[0], w[1])
	}
}

func TestBlockedWorkNotCounted(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() == 1 {
			ctx.Send(2, "a", 10)
		}
		return true
	}))
	net.SpawnHandler(2, HandlerFunc(func(*Ctx, []Message) bool { return true }))
	net.SetBlocked(map[NodeID]bool{1: true})
	net.Run(2)
	net.Shutdown()
	w := net.Work()
	if w[0].TotalBits != 0 || w[0].Messages != 0 {
		t.Fatalf("blocked sender's work counted: %+v", w[0])
	}
}

func TestRNGPerNodeDeterministic(t *testing.T) {
	run := func() [2]uint64 {
		net := NewNetwork(Config{Seed: 99})
		var out [2]uint64
		for i := 0; i < 2; i++ {
			idx := i
			net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
				out[idx] = ctx.RNG().Uint64()
				return false
			}))
		}
		net.Run(1)
		net.Shutdown()
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("node RNGs not deterministic: %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Fatal("different nodes share an RNG stream")
	}
}

func TestSpawnMidRun(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var recv atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		recv.Add(int64(len(inbox)))
		return true
	}))
	net.Step()
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		ctx.Send(1, "hello", 1)
		return false
	}))
	net.Run(3)
	net.Shutdown()
	if recv.Load() != 1 {
		t.Fatalf("node 1 received %d messages from late joiner, want 1", recv.Load())
	}
}

func TestIDBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 3, 4: 3, 1024: 11, 1 << 16: 17}
	for n, want := range cases {
		if got := IDBits(n); got != want {
			t.Fatalf("IDBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestManyNodesBarrier(t *testing.T) {
	// Smoke test that thousands of nodes step through a ring exchange.
	const n = 2000
	net := NewNetwork(Config{Seed: 5})
	var total atomic.Int64
	for i := 0; i < n; i++ {
		id := NodeID(i + 1)
		next := NodeID(uint64(id)%n + 1)
		net.SpawnHandler(id, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			total.Add(int64(len(inbox)))
			if ctx.Round() > 3 {
				return false
			}
			ctx.Send(next, 1, 1)
			return true
		}))
	}
	net.Run(4)
	net.Shutdown()
	// Each of n nodes receives one message in each of rounds 2..4.
	want := int64(n * 3)
	if total.Load() < want {
		t.Fatalf("total deliveries %d < %d", total.Load(), want)
	}
}

func BenchmarkBarrier1kNodes(b *testing.B) {
	net := NewNetwork(Config{Seed: 1})
	const n = 1000
	for i := 0; i < n; i++ {
		net.SpawnHandler(NodeID(i+1), HandlerFunc(func(*Ctx, []Message) bool { return true }))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}
