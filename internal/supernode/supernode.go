// Package supernode implements the DoS-resistant overlay of Section 5:
// n nodes organized into the groups R(x) of the 2^d supernodes of a
// binary hypercube, with group members forming cliques and neighboring
// groups complete bipartite graphs. Every Θ(log log n) rounds the
// groups are rebuilt from scratch using the rapid node sampling
// primitive (Algorithm 2), simulated at the supernode level by the
// groups, so that an Ω(log log n)-late adversary never knows the
// current group composition (Theorem 6).
//
// The round pipeline — the replicated group-state simulation, leader
// election, delivery under faults and latency, the S(x) broadcast, the
// knowledge history and the connectivity checker — is the shared
// engine of package groupsim (see DESIGN.md). This package is its
// fixed-cube topology: the k-ary cube adjacency, one simulated vertex
// per group, the Phase 1 coordinate fill, and the reorganization that
// sends a group's members straight to its first samples. It also
// accounts the implied communication work (full-state broadcasts
// within groups, supernode messages fanned out to whole target groups)
// in bits.
package supernode

import (
	"fmt"
	"math"

	"overlaynet/internal/audit"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/groupsim"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/obs"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Config configures the DoS-resistant hypercube network.
type Config struct {
	Seed uint64
	// N is the number of physical nodes (fixed; Section 6 lifts this).
	N int
	// K is the hypercube arity (default 2, the binary cube of Section
	// 5). K > 2 gives the k-ary extension of Section 7.2: supernodes
	// are the vertices of a d-dimensional k-ary cube (Definition 1)
	// and coordinate randomization draws a uniform symbol from
	// {0,…,k−1}, which for k = 2 is exactly the paper's coin flip.
	K int
	// C is the group-size constant: the supernode count is the largest
	// K^d ≤ N/(C·log₂ N) with the dimension d a power of two
	// (Algorithm 2's d = 2^k assumption). Default 1.
	C float64
	// Epsilon is the sampling budget slack (default 1).
	Epsilon float64
	// MeasureEvery controls how often Step measures connectivity: every
	// that many rounds (0 means 1, every round; negative never).
	// ConnectedNow measures on demand either way.
	MeasureEvery int
	// RandomLeader replaces the paper's lowest-id synchronization rule
	// with an arbitrary-but-consistent available member (ablation A2:
	// any deterministic choice keeps the groups consistent).
	RandomLeader bool
	// Shards is the intra-round worker count (0 consults the
	// OVERLAYNET_SHARDS environment variable, then 1). Results are
	// byte-identical at any value.
	Shards int
}

// Validate reports whether the configuration is usable, so CLIs can
// turn bad flag values into error messages instead of stack traces.
// New still panics on the same conditions.
func (cfg Config) Validate() error {
	if cfg.N < 64 {
		return fmt.Errorf("supernode: n = %d too small (need at least 64)", cfg.N)
	}
	k := cfg.K
	if k == 0 {
		k = 2
	}
	if k < 2 {
		return fmt.Errorf("supernode: arity %d < 2", k)
	}
	c := cfg.C
	if c == 0 {
		c = 1
	}
	if c < 0 {
		return fmt.Errorf("supernode: group-size constant %g must be positive", c)
	}
	if cfg.Epsilon < 0 {
		return fmt.Errorf("supernode: epsilon %g must be positive", cfg.Epsilon)
	}
	// The smallest cube has dimension 2, so k^2 supernodes must fit the
	// group-size budget n/(c·log₂ n).
	if limit := float64(cfg.N) / (c * math.Log2(float64(cfg.N))); float64(k)*float64(k) > limit {
		return fmt.Errorf("supernode: arity %d too large for n = %d (needs %d supernodes, budget %.1f)",
			k, cfg.N, k*k, limit)
	}
	return nil
}

// RoundReport summarizes one communication round.
type RoundReport struct {
	Round   int
	Epoch   int
	Blocked int
	// Connected reports whether the non-blocked nodes form a connected
	// graph under the nodes' current (possibly stale) knowledge; it is
	// true when measurement was skipped this round.
	Connected bool
	// Measured reports whether connectivity was actually computed.
	Measured bool
	// Stalls counts groups that had no available member this round.
	Stalls int
	// MaxNodeBits is the estimated peak per-node communication work.
	MaxNodeBits int64
}

// Stats aggregates protocol health counters.
type Stats struct {
	Rounds        int
	Epochs        int
	Stalls        int   // group-without-available-member events
	SampleFails   int   // multiset underflow in the simulated primitive
	AssignFails   int   // members beyond the sample budget
	EmptyGroups   int   // rebuilt groups with no members
	Disconnected  int   // rounds measured disconnected
	MeasuredTotal int   // rounds where connectivity was measured
	MaxNodeBits   int64 // peak per-node round work over the run
	FaultDrops    int   // supernode messages lost to injected faults
	FaultDups     int   // supernode messages duplicated by injected faults
	Crashes       int   // node-crash events from the fault schedule
	Restarts      int   // crashed nodes that came back
	Messages      int64 // supernode-level protocol messages delivered
}

// Network is the Section 5 overlay: the groupsim engine over a fixed
// k-ary cube with one vertex per group.
type Network struct {
	cfg    Config
	eng    *groupsim.Engine
	cube   *hypercube.KAry
	dim    int // supernode hypercube dimension (power of two)
	nSuper int
	adj    [][]int32 // supernode adjacency (fixed hypercube)
	mi     []int     // per-iteration sample budget
	log2k  uint      // log₂ K when K is a power of two, else 0

	maxNodeBits  int64 // Stats.MaxNodeBits
	supBits      int
	groupBitsAvg int
}

// kary is the Network as the engine's groupsim.Topology.
type kary Network

// New builds the network with nodes assigned to groups independently
// and uniformly at random (the paper's initial condition).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.C == 0 {
		cfg.C = 1
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	if cfg.MeasureEvery == 0 {
		cfg.MeasureEvery = 1
	}
	if cfg.K == 0 {
		cfg.K = 2
	}
	nw := &Network{cfg: cfg}
	// Largest power-of-two dimension d with k^d ≤ n/(C·log₂ n).
	limit := float64(cfg.N) / (cfg.C * math.Log2(float64(cfg.N)))
	d := 2
	for next := d * 2; math.Pow(float64(cfg.K), float64(next)) <= limit; next *= 2 {
		d = next
	}
	if math.Pow(float64(cfg.K), float64(d)) > limit {
		panic(fmt.Sprintf("supernode: arity %d too large for n = %d", cfg.K, cfg.N))
	}
	nw.dim = d
	nw.cube = hypercube.NewKAry(cfg.K, d)
	if cfg.K&(cfg.K-1) == 0 {
		for v := cfg.K; v > 1; v >>= 1 {
			nw.log2k++
		}
	}
	nw.nSuper = nw.cube.N()
	t := groupsim.Iterations(d)
	// Sample budget: m_T must cover the largest group w.h.p.
	avg := float64(cfg.N) / float64(nw.nSuper)
	cSamp := math.Ceil(3*avg) / float64(d)
	if cSamp < 1 {
		cSamp = 1
	}
	nw.mi = make([]int, t+1)
	for i := 0; i <= t; i++ {
		nw.mi[i] = int(math.Ceil(math.Pow(1+cfg.Epsilon, float64(t-i)) * cSamp * float64(d)))
	}

	nw.eng = groupsim.New(groupsim.Spec{
		Name: "supernode", Seed: cfg.Seed, Shards: cfg.Shards, MeasureEvery: cfg.MeasureEvery,
		RandomLeader: cfg.RandomLeader, CountEmpty: true,
		RespOffset: uint64(nw.nSuper), EpochTail: 4,
	}, (*kary)(nw))
	e := nw.eng
	e.Grow(cfg.N)
	r := rng.New(cfg.Seed)
	for v := range e.NodeR {
		e.NodeR[v] = *r.Split(uint64(v) + 1)
	}
	e.Groups = make([][]sim.NodeID, nw.nSuper)
	for v := 0; v < cfg.N; v++ {
		x := r.Intn(nw.nSuper)
		e.Groups[x] = append(e.Groups[x], sim.NodeID(v+1))
	}
	e.IndexGroups()
	e.VLo = make([]int32, nw.nSuper)
	e.VHi = make([]int32, nw.nSuper)
	nw.adj = make([][]int32, nw.nSuper)
	for x := 0; x < nw.nSuper; x++ {
		e.VLo[x], e.VHi[x] = int32(x), int32(x+1)
		for _, y := range nw.cube.Neighbors(x) {
			nw.adj[x] = append(nw.adj[x], int32(y))
		}
	}
	nw.layout()
	e.Record(nw.adj)
	nw.supBits = sim.IDBits(nw.nSuper)
	nw.groupBitsAvg = int(avg+1) * sim.IDBits(cfg.N)
	return nw
}

// layout starts a sampling epoch: supernode x is vertex x, label x.
func (nw *Network) layout() {
	e := nw.eng
	e.Layout(nw.dim, nw.mi, nw.nSuper, nw.nSuper)
	for x := 0; x < nw.nSuper; x++ {
		e.Label[x] = uint32(x)
		e.Route[x] = int32(x)
	}
}

// Fill implements groupsim.Topology: each entry of list j is vertex w
// with coordinate j−1 replaced by a uniform symbol (for k = 2, the
// paper's fair coin).
func (t *kary) Fill(w uint32, j int, list []uint32, r *rng.RNG) {
	if t.log2k != 0 {
		// Power-of-two arity: Intn(k) is exactly the top log₂k bits of
		// one raw draw (the Lemire rejection loop never fires when k
		// divides 2⁶⁴), and the coordinate update is a shifted
		// bit-field write — same draw sequence, no multiply or division.
		s := uint(j-1) * t.log2k
		stripped := w &^ uint32((t.cfg.K-1)<<s)
		for k := range list {
			list[k] = stripped | uint32(r.Uint64()>>(64-t.log2k))<<s
		}
		return
	}
	for k := range list {
		list[k] = uint32(t.cube.WithCoord(int(w), j-1, r.Intn(t.cfg.K)))
	}
}

// Assign implements groupsim.Topology: the members of group x (sorted
// by id) go to the first samples of vertex x, in order; a stalled
// group's members stay put (already counted as a stall).
func (t *kary) Assign(a *groupsim.Acc, x int, r *rng.RNG) {
	members := t.eng.Groups[x]
	if r == nil {
		for _, id := range members {
			a.Route(int32(x), id)
		}
		return
	}
	samples := t.eng.Samples(x)
	for i, id := range members {
		var target int32
		if len(samples) == 0 {
			a.AssignFails++
			target = int32(x)
		} else if i < len(samples) {
			target = int32(samples[i])
		} else {
			a.AssignFails++
			target = int32(samples[i%len(samples)])
		}
		a.Route(target, id)
	}
}

// Commit implements groupsim.Topology: the pending groups replace the
// committed ones and the primitive restarts from empty multisets.
func (t *kary) Commit() {
	nw := (*Network)(t)
	e := nw.eng
	e.Groups, e.Pending = e.Pending, e.Groups
	e.IndexGroups()
	e.NextEpoch(nw.adj)
	nw.layout()
}

// Close releases the shard worker goroutines; see groupsim.Engine.Close.
func (nw *Network) Close() { nw.eng.Close() }

// Engine returns the shared group-simulation engine the network runs
// on, for tests that inspect its state; stepping it directly bypasses
// the network's bookkeeping.
func (nw *Network) Engine() *groupsim.Engine { return nw.eng }

// Dim returns the supernode hypercube dimension.
func (nw *Network) Dim() int { return nw.dim }

// NSuper returns the number of supernodes.
func (nw *Network) NSuper() int { return nw.nSuper }

// Epoch returns the number of completed reorganizations.
func (nw *Network) Epoch() int { return nw.eng.Epoch }

// Round returns the number of completed rounds.
func (nw *Network) Round() int { return nw.eng.Round }

// EpochRounds returns the rounds per reorganization epoch: two real
// rounds (simulation + synchronization) per primitive round of
// Algorithm 2, plus four reorganization rounds — Θ(log log n).
func (nw *Network) EpochRounds() int { return nw.eng.EpochRounds() }

// GroupSizes returns the current group sizes.
func (nw *Network) GroupSizes() []int {
	out := make([]int, nw.nSuper)
	for x, g := range nw.eng.Groups {
		out[x] = len(g)
	}
	return out
}

// Groups returns the current committed groups (do not modify).
func (nw *Network) Groups() [][]sim.NodeID { return nw.eng.Groups }

// StatsSnapshot returns the accumulated health counters.
func (nw *Network) StatsSnapshot() Stats {
	c := nw.eng.C
	return Stats{
		Rounds: c.Rounds, Epochs: c.Epochs, Stalls: c.Stalls,
		SampleFails: c.SampleFails, AssignFails: c.AssignFails, EmptyGroups: c.EmptyGroups,
		Disconnected: c.Disconnected, MeasuredTotal: c.Measured, MaxNodeBits: nw.maxNodeBits,
		FaultDrops: c.FaultDrops, FaultDups: c.FaultDups, Crashes: c.Crashes, Restarts: c.Restarts,
		Messages: c.Messages,
	}
}

// Snapshot publishes the committed topology at supernode granularity;
// see groupsim.Engine.Snapshot.
func (nw *Network) Snapshot() *dos.Snapshot { return nw.eng.Snapshot() }

// SetMetrics attaches a protocol metric bundle (obs.StackMetrics for
// the "supernode" stack); see groupsim.Engine.SetMetrics.
func (nw *Network) SetMetrics(sm *obs.StackMetrics) { nw.eng.SetMetrics(sm) }

// SetAudit attaches an invariant-audit engine (nil detaches): the
// connectivity and group-partition checkers are registered and the
// engine ticks once per Step.
func (nw *Network) SetAudit(e *audit.Engine) {
	nw.eng.SetAudit(e)
	if e == nil {
		return
	}
	e.Register("supernode-connectivity", func() []audit.Violation {
		if !nw.ConnectedNow() {
			return []audit.Violation{{Detail: fmt.Sprintf(
				"round %d: non-blocked nodes disconnected under current knowledge", nw.eng.Round)}}
		}
		return nil
	})
	e.Register("supernode-groups", nw.checkGroups)
}

// SetFaults attaches a deterministic fault specification; see
// groupsim.Engine.SetFaults.
func (nw *Network) SetFaults(spec fault.Spec) { nw.eng.SetFaults(spec) }

// SetLatency attaches the latency model in virtual-round form; see
// groupsim.Engine.SetLatency.
func (nw *Network) SetLatency(lat sim.Latency) { nw.eng.SetLatency(lat) }

// checkGroups verifies the group partition: every node is in exactly
// one group, and its nodeGroup pointer names that group.
func (nw *Network) checkGroups() []audit.Violation {
	seen := make([]int32, nw.cfg.N) // group+1 where each node was found
	var bad []uint64
	var detail string
	for x, g := range nw.eng.Groups {
		for _, id := range g {
			v := int(id) - 1
			if v < 0 || v >= nw.cfg.N {
				bad = append(bad, uint64(id))
				detail = "group member id out of range"
				continue
			}
			if seen[v] != 0 {
				bad = append(bad, uint64(id))
				detail = "node appears in more than one group"
				continue
			}
			seen[v] = int32(x) + 1
		}
	}
	for v := 0; v < nw.cfg.N; v++ {
		switch {
		case seen[v] == 0:
			bad = append(bad, uint64(v+1))
			detail = "node missing from every group"
		case seen[v]-1 != nw.eng.NodeGroup[v]:
			bad = append(bad, uint64(v+1))
			detail = "nodeGroup pointer disagrees with group membership"
		}
	}
	if len(bad) == 0 {
		return nil
	}
	if len(bad) > 16 {
		bad = bad[:16]
	}
	return []audit.Violation{{Detail: fmt.Sprintf("%s (%d nodes affected)", detail, len(bad)), Nodes: bad}}
}

// CorruptGroupForTest deliberately desynchronizes the group partition
// (one node's nodeGroup pointer stops matching its group) so tests can
// prove the audit layer reports it within one check interval. Never
// call it outside tests.
func (nw *Network) CorruptGroupForTest() {
	for x, g := range nw.eng.Groups {
		if len(g) > 0 {
			nw.eng.NodeGroup[g[0]-1] = int32((x + 1) % nw.nSuper)
			return
		}
	}
}

// Step executes one communication round under the given blocked set.
// The map is copied into owned bitset storage; the caller may reuse or
// mutate it freely after Step returns.
func (nw *Network) Step(blocked map[sim.NodeID]bool) RoundReport {
	r := nw.eng.Step(blocked)
	bits := nw.estimateWork()
	nw.maxNodeBits = max(nw.maxNodeBits, bits)
	return RoundReport{Round: r.Round, Epoch: r.Epoch, Blocked: r.Blocked, Connected: r.Connected,
		Measured: r.Measured, Stalls: r.Stalls, MaxNodeBits: bits}
}

// estimateWork returns the implied per-node communication bits for the
// round just executed: the every-round state broadcast within each
// group plus the supernode message fan-out to whole target groups.
func (nw *Network) estimateWork() int64 {
	perEntry := int64(nw.supBits + nw.groupBitsAvg)
	var stateBits int64
	for x := 0; x < nw.nSuper; x++ {
		entries, _ := nw.eng.Load(x)
		stateBits = max(stateBits, int64(entries)*perEntry)
	}
	var maxBits int64
	for x, g := range nw.eng.Groups {
		if len(g) == 0 {
			continue
		}
		_, queued := nw.eng.Load(x)
		maxBits = max(maxBits, int64(len(g)-1)*stateBits+int64(queued)*perEntry)
	}
	return maxBits
}

// ConnectedNow reports whether the non-blocked nodes form a connected
// graph under each node's current knowledge; see
// groupsim.Engine.ConnectedNow.
func (nw *Network) ConnectedNow() bool { return nw.eng.ConnectedNow() }

// Run drives the network for the given number of rounds under the
// adversary, publishing a snapshot every round and enforcing the
// buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	reports := make([]RoundReport, 0, rounds)
	for i := 0; i < rounds; i++ {
		buf.Publish(nw.Snapshot())
		var blocked map[sim.NodeID]bool
		if adv != nil {
			blocked = adv.SelectBlocked(nw.eng.Round+1, nw.cfg.N, buf.View(nw.eng.Round+1))
		}
		reports = append(reports, nw.Step(blocked))
	}
	return reports
}
