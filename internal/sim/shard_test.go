package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"weak"
)

// churnScenario drives a network through a workload that exercises
// every kernel path at once — fan-out sends, blocked senders and
// receivers, departures, kills, and late spawns — and returns the
// work log plus the tracer's view (nil tracer ⇒ nil stats).
func churnScenario(shards int, traced bool) ([]RoundWork, *countingTracer) {
	var tr *countingTracer
	net := NewNetwork(Config{Seed: 42, Shards: shards})
	if traced {
		tr = &countingTracer{}
		net.SetTracer(tr)
	}
	runChurnScenario(net)
	return net.Work(), tr
}

// runChurnScenario runs churnScenario's workload on a prepared network
// (its config, tracer and injector already set) and shuts it down.
func runChurnScenario(net *Network) {
	const n = 64
	spawn := func(i int) {
		idx := i
		net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			k := int(ctx.RNG().Intn(5))
			for j := 0; j < k; j++ {
				// Some targets are dead or not yet spawned on purpose.
				ctx.Send(NodeID((idx*3+j*11)%(n+8)+1), j, 16+j)
			}
			return true
		}))
	}
	for i := 0; i < n; i++ {
		spawn(i)
	}
	for r := 0; r < 12; r++ {
		switch r {
		case 2:
			net.SetBlocked(map[NodeID]bool{3: true, 17: true, 40: true})
		case 4:
			net.Kill(5)
			net.Kill(23)
		case 5:
			spawn(n + 1)
			net.SetBlocked(map[NodeID]bool{NodeID(n + 2): true, 9: true})
		case 8:
			net.Kill(1)
			spawn(n + 4)
		}
		net.Step()
	}
	net.Shutdown()
}

// TestWorkLogByteIdentityAcrossShards is the tentpole determinism
// regression: at a fixed seed, the serialized Work() log must be
// byte-for-byte identical for Shards=1 and Shards=8, with and without a
// tracer attached, and the tracer's round stats and drop counters must
// agree across shard counts too.
func TestWorkLogByteIdentityAcrossShards(t *testing.T) {
	for _, traced := range []bool{false, true} {
		baseWork, baseTr := churnScenario(1, traced)
		baseBytes, err := json.Marshal(baseWork)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 8} {
			work, tr := churnScenario(shards, traced)
			got, err := json.Marshal(work)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, baseBytes) {
				t.Fatalf("traced=%v: Work() log differs between Shards=1 and Shards=%d", traced, shards)
			}
			if !traced {
				continue
			}
			if tr.drops != baseTr.drops {
				t.Fatalf("drop counters differ between Shards=1 and Shards=%d: %v vs %v",
					shards, baseTr.drops, tr.drops)
			}
			if tr.rounds != baseTr.rounds || tr.spawns != baseTr.spawns ||
				tr.kills != baseTr.kills || tr.blocks != baseTr.blocks {
				t.Fatalf("lifecycle counters differ between Shards=1 and Shards=%d", shards)
			}
			if len(tr.stats) != len(baseTr.stats) {
				t.Fatalf("round stats length differs: %d vs %d", len(baseTr.stats), len(tr.stats))
			}
			for i := range tr.stats {
				if tr.stats[i] != baseTr.stats[i] {
					t.Fatalf("round %d stats differ between Shards=1 and Shards=%d:\n%+v\n%+v",
						i+1, shards, baseTr.stats[i], tr.stats[i])
				}
			}
		}
	}
}

// TestShardsMoreThanNodes covers the degenerate partitions: more shards
// than nodes, and an empty network stepped under sharding.
func TestShardsMoreThanNodes(t *testing.T) {
	base, _ := churnScenarioTiny(1)
	got, _ := churnScenarioTiny(16)
	if len(base) != len(got) {
		t.Fatalf("work log lengths differ: %d vs %d", len(base), len(got))
	}
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("round %d differs with Shards=16 over 3 nodes: %+v vs %+v", i+1, base[i], got[i])
		}
	}

	empty := NewNetwork(Config{Seed: 1, Shards: 8})
	empty.Run(3) // must not hang or panic with zero nodes
	empty.Shutdown()
}

func churnScenarioTiny(shards int) ([]RoundWork, *countingTracer) {
	net := NewNetwork(Config{Seed: 7, Shards: shards})
	for i := 0; i < 3; i++ {
		to := NodeID((i+1)%3 + 1)
		net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			ctx.Send(to, "x", 8)
			return true
		}))
	}
	net.SetBlocked(map[NodeID]bool{2: true})
	net.Run(4)
	net.Shutdown()
	return net.Work(), nil
}

// TestSetBlockedMapAliasing is the regression test for the aliasing
// footgun: SetBlocked must snapshot the caller's map at call time, so
// mutating (or clearing) the map afterwards cannot change the round's
// DoS set.
func TestSetBlockedMapAliasing(t *testing.T) {
	run := func(mutate bool) []RoundWork {
		net := NewNetwork(Config{Seed: 13})
		net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			ctx.Send(2, "x", 8)
			return true
		}))
		net.SpawnHandler(2, HandlerFunc(func(*Ctx, []Message) bool { return true }))
		blocked := map[NodeID]bool{1: true}
		net.SetBlocked(blocked)
		if mutate {
			delete(blocked, 1) // must not unblock node 1
			blocked[2] = true  // must not block node 2
		}
		net.Step()
		net.Run(2)
		net.Shutdown()
		return net.Work()
	}
	base, mutated := run(false), run(true)
	if len(base) != len(mutated) {
		t.Fatalf("work log lengths differ: %d vs %d", len(base), len(mutated))
	}
	for i := range base {
		if base[i] != mutated[i] {
			t.Fatalf("round %d: mutating the map after SetBlocked changed the round: %+v vs %+v",
				i+1, base[i], mutated[i])
		}
	}
	// Sanity: the snapshot actually blocked node 1 in round 1.
	if base[0].Messages != 0 {
		t.Fatalf("round 1 should have a blocked sender, got %d messages", base[0].Messages)
	}
	if base[1].Messages != 1 {
		t.Fatalf("round 2 should be unblocked (the set applies to one Step only), got %d messages",
			base[1].Messages)
	}
}

// TestSetBlockedReplacesPreviousPending: two SetBlocked calls before a
// Step — the second call replaces the first set rather than unioning.
func TestSetBlockedReplacesPreviousPending(t *testing.T) {
	net := NewNetwork(Config{Seed: 14})
	for i := 1; i <= 2; i++ {
		net.SpawnHandler(NodeID(i), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			ctx.Send(3, "x", 8)
			return true
		}))
	}
	net.SpawnHandler(3, HandlerFunc(func(*Ctx, []Message) bool { return true }))
	net.SetBlocked(map[NodeID]bool{1: true, 2: true})
	net.SetBlocked(map[NodeID]bool{1: true})
	net.Step()
	net.Shutdown()
	if got := net.Work()[0].Messages; got != 1 {
		t.Fatalf("round 1 messages = %d, want 1 (only node 1 blocked after replacement)", got)
	}
}

// shardTimingTracer records ShardRound callbacks on top of the counting
// tracer, verifying the optional ShardObserver extension fires once per
// worker per round on the sharded path.
type shardTimingTracer struct {
	countingTracer
	shardCalls []int // worker ids in callback order
}

func (t *shardTimingTracer) ShardRound(round, shard int, recvUS, sendUS int64) {
	t.shardCalls = append(t.shardCalls, shard)
}

func TestShardObserverFiresPerWorker(t *testing.T) {
	const shards, rounds = 4, 3
	net := NewNetwork(Config{Seed: 21, Shards: shards})
	tr := &shardTimingTracer{}
	net.SetTracer(tr)
	for i := 0; i < 16; i++ {
		net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			ctx.Send(1, "x", 8)
			return true
		}))
	}
	net.Run(rounds)
	net.Shutdown()
	if len(tr.shardCalls) != shards*rounds {
		t.Fatalf("ShardRound fired %d times, want %d", len(tr.shardCalls), shards*rounds)
	}
	for i, w := range tr.shardCalls {
		if w != i%shards {
			t.Fatalf("ShardRound call %d came from worker %d, want %d (worker order)", i, w, i%shards)
		}
	}
}

// TestShardedNetworkCollectedWithoutShutdown: a sharded network that is
// dropped without Shutdown must still be collectable. Its parked shard
// workers reference only the worker pool, never the network, so the
// network's reachability is decided by its callers alone (and the
// pool's finalizer then stops the workers).
func TestShardedNetworkCollectedWithoutShutdown(t *testing.T) {
	wp := func() weak.Pointer[Network] {
		net := NewNetwork(Config{Seed: 3, Shards: 4})
		for i := 0; i < 8; i++ {
			net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
				ctx.Send(1, "x", 8)
				return true
			}))
		}
		net.Step()
		return weak.Make(net)
	}()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("sharded network dropped without Shutdown is still reachable after GC")
	}
}
