package sim

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSelfSendDelivered(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var got atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		got.Add(int64(len(inbox)))
		if ctx.Round() == 1 {
			ctx.Send(1, "loop", 4)
		}
		return ctx.Round() < 2
	}))
	net.Run(2)
	net.Shutdown()
	if got.Load() != 1 {
		t.Fatalf("self-send delivered %d messages, want 1", got.Load())
	}
}

func TestDisableWorkLog(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.DisableWorkLog()
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		ctx.Send(1, "x", 8)
		return true
	}))
	net.Run(3)
	net.Shutdown()
	if len(net.Work()) != 0 {
		t.Fatalf("work log has %d entries after disabling", len(net.Work()))
	}
}

func TestAliveOrderIsSpawnOrder(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	ids := []NodeID{5, 2, 9}
	for _, id := range ids {
		net.SpawnHandler(id, HandlerFunc(func(*Ctx, []Message) bool { return true }))
	}
	got := net.Alive()
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("alive order %v, want %v", got, ids)
		}
	}
	net.Shutdown()
}

// TestMessageConservation checks, for random message patterns, that
// with no blocking every sent message to a live node is delivered
// exactly once.
func TestMessageConservation(t *testing.T) {
	f := func(seed uint64, pattern []uint8) bool {
		if len(pattern) == 0 || len(pattern) > 60 {
			return true
		}
		const n = 8
		net := NewNetwork(Config{Seed: seed})
		var sent, received atomic.Int64
		for i := 0; i < n; i++ {
			idx := i
			net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
				received.Add(int64(len(inbox)))
				r := ctx.Round() - 1
				if r >= 4 {
					return false
				}
				// Deterministic pattern-driven fan-out.
				k := int(pattern[(idx+r)%len(pattern)]) % 4
				for j := 0; j < k; j++ {
					to := NodeID((idx+j+r)%n + 1)
					ctx.Send(to, j, 1)
					sent.Add(1)
				}
				return true
			}))
		}
		// Sends happen in rounds 1..4; round 5 delivers the last ones.
		net.Run(5)
		net.Shutdown()
		return received.Load() == sent.Load()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestExactDeliveryCount(t *testing.T) {
	// Deterministic version of conservation: every node sends exactly
	// one message per round for R rounds to a fixed peer; the peer
	// must receive exactly R−? messages: sends happen rounds 1..R,
	// deliveries land rounds 2..R+1, and the receiver reads through
	// round R+1.
	const R = 5
	net := NewNetwork(Config{Seed: 3})
	var received atomic.Int64
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if ctx.Round() <= R {
			ctx.Send(2, ctx.Round(), 1)
		}
		return ctx.Round() < R+2
	}))
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		received.Add(int64(len(inbox)))
		return ctx.Round() < R+2
	}))
	net.Run(R + 2)
	net.Shutdown()
	if received.Load() != R {
		t.Fatalf("received %d, want %d", received.Load(), R)
	}
}

func TestBlockedRoundWindow(t *testing.T) {
	// Block the receiver ONLY in the send round: dropped. Block ONLY
	// in the delivery round: dropped. Blocked in neither: delivered.
	for _, blockAt := range []int{0, 1, 2, -1} {
		net := NewNetwork(Config{Seed: 4})
		var received atomic.Int64
		net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			if ctx.Round() == 2 { // round 1 idle, sends in round 2
				ctx.Send(2, "x", 1)
			}
			return ctx.Round() < 3
		}))
		net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			received.Add(int64(len(inbox)))
			return true
		}))
		for round := 1; round <= 4; round++ {
			if round == 2+blockAt && blockAt >= 0 && blockAt <= 1 {
				net.SetBlocked(map[NodeID]bool{2: true})
			}
			net.Step()
		}
		net.Shutdown()
		want := int64(1)
		if blockAt == 0 || blockAt == 1 {
			want = 0 // blocked in send round (2) or delivery round (3)
		}
		if received.Load() != want {
			t.Fatalf("blockAt=%d: received %d, want %d", blockAt, received.Load(), want)
		}
	}
}
