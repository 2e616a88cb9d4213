// Package groupsim is the group-simulation engine shared by the §5
// (package supernode) and §6 (package splitmerge) overlays. Both
// organize nodes into groups R(x) — cliques, with complete bipartite
// links between neighboring groups — and rebuild the groups every
// Θ(log log n) rounds by simulating the rapid node sampling primitive
// (Algorithm 2) at group level over the vertices of a hypercube. They
// differ only in the topology: §5 runs one vertex per group on a fixed
// k-ary cube, §6 gives a group with label x the 2^(Dmax−d(x)) virtual
// vertices of its label subtree in the Dmax-cube. The Topology
// interface carries exactly those differences; everything else — the
// per-node state, leader election, the vertex simulation, delivery
// with its fault and latency gate, assignment routing, the knowledge
// history, the S(x) broadcast, the connectivity checker and the
// sharded execution — lives here, once.
//
// The replicated group-state machine is executed semantically: a
// group's adopted state is computed once per round with the randomness
// of its leader (the lowest-id available member, the paper's
// synchronization rule), a group with no available member stalls, and
// per-node staleness is tracked explicitly for the connectivity
// measurement. A node is available in round i iff it is non-blocked in
// rounds i−1 and i (Section 1.1).
//
// Scale layout: per-node state is dense and slot-indexed (slot =
// id−1−base, see Slot and ID) — RNGs as a flat []rng.RNG, the group
// index and view epochs as int32 slices, the blocked history and crash
// set as sim.Bitset — and every per-round structure (multisets, queues,
// pending groups, history, checker scratch) is an arena reused across
// rounds and epochs, so Step allocates nothing in steady state outside
// the assign and commit rounds. Under churn the topology retires the
// dead id prefix (RetireBelow), so slot state stays proportional to
// the live id span rather than to every id ever issued.
package groupsim

import (
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/obs"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Topology supplies what differs between the overlays. The engine
// calls Fill and Assign from its pool workers, for disjoint groups;
// Commit runs on the stepping goroutine.
type Topology interface {
	// Fill writes list j (1-based) of vertex w's Phase 1 multiset: one
	// one-coordinate walk from w per entry, drawn from r in entry order.
	Fill(w uint32, j int, list []uint32, r *rng.RNG)
	// Assign routes group g's members to their new groups with
	// a.Route. r is the leader's RNG, nil when the group stalled.
	Assign(a *Acc, g int, r *rng.RNG)
	// Commit installs the groups the assign round left in
	// Engine.Pending and starts the next epoch (Engine.NextEpoch and
	// Engine.Layout).
	Commit()
}

// Spec is what a topology fixes at construction.
type Spec struct {
	Name   string // stack name, for panic messages
	Seed   uint64 // keys the latency gate's delay hash
	Shards int    // intra-round workers (0: OVERLAYNET_SHARDS, then 1)
	// MeasureEvery: Step measures connectivity every that many rounds;
	// zero or negative never.
	MeasureEvery int
	// RandomLeader replaces the lowest-id leader with a round-dependent
	// rotation over the available members (§5 ablation A2).
	RandomLeader bool
	// CountEmpty counts rebuilt groups that received no member.
	CountEmpty bool
	// RespOffset keeps the fault-injection hash stream of responses
	// disjoint from requests: a response's sender id is its payload
	// label plus RespOffset.
	RespOffset uint64
	// EpochTail is the number of rounds after the sampling phase: the
	// reorganization's gather/share/distribute rounds (and §6's
	// split/merge rounds); the last one commits.
	EpochTail int
}

// Counters are the protocol health counters both overlays report.
type Counters struct {
	Rounds       int
	Epochs       int
	Stalls       int // group-without-available-member events
	SampleFails  int // multiset underflow in the simulated primitive
	AssignFails  int // members beyond the sample budget
	EmptyGroups  int // rebuilt groups with no members (Spec.CountEmpty)
	Splits       int
	Merges       int
	ForcedMerges int
	Disconnected int // rounds measured disconnected
	Measured     int // rounds where connectivity was measured
	FaultDrops   int // group-level messages lost to injected faults
	FaultDups    int // group-level messages duplicated by injected faults
	Crashes      int // node-crash events from the fault schedule
	Restarts     int // crashed nodes that came back
	Messages     int64
}

// Report summarizes one Step.
type Report struct {
	Round, Epoch, Blocked int
	// Connected is true when measurement was skipped this round.
	Connected, Measured bool
	Stalls              int
}

// histEntry is one epoch's committed topology, held in a ring for the
// connectivity measurement and the snapshots. Entries and their slices
// are recycled once every member's view has moved past them.
type histEntry struct {
	groups    [][]sim.NodeID
	adj       [][]int32
	nodeGroup []int32
}

// Engine is the shared group simulation. The exported fields are the
// state a Topology reads and maintains.
type Engine struct {
	spec Spec
	topo Topology

	// Per-node state, slot-indexed (slot = id−1−base; see Slot, ID and
	// RetireBelow). §5 never churns, so its base stays 0.
	base      int
	NodeR     []rng.RNG
	NodeGroup []int32 // committed group, −1 = not a committed member
	ViewEpoch []int32 // epoch whose assignment the node last received
	// members lists, ascending, the slots IndexGroups left committed, so
	// per-member loops skip the slots departed nodes leave behind. A
	// topology may move a member to another group or drop it (−1)
	// between IndexGroups calls, but only IndexGroups adds members.
	members []int32

	// Groups are the committed groups, each sorted; group g simulates
	// the vertices [VLo[g], VHi[g]). The topology keeps all three
	// current. Pending holds the rebuilt groups from the assign round
	// to the commit.
	Groups   [][]sim.NodeID
	VLo, VHi []int32
	Pending  [][]sim.NodeID

	// The simulated primitive over the current epoch's vertices: Label
	// is each vertex's cube label, Route maps a label to the vertex
	// that receives its messages (−1: dropped).
	Label []uint32
	Route []int32
	T     int // pointer-doubling iterations, ⌈log₂ dim⌉
	dim   int
	mi    []int // per-iteration sample budget

	Round, Epoch, Phase int
	C                   Counters

	// Per-vertex primitive state; the multisets are flattened to
	// mset[v*(dim+1)+j], j = 1..dim, so the hot paths load one slice
	// header per access.
	mset    [][]uint32
	samples [][]uint32
	reqs    [][]req
	resps   [][]resp

	pendingValid bool

	// blockedHist holds the last three rounds' blocked sets as owned
	// bitsets: [0] the round being executed, [1]/[2] the two before.
	// Step copies the caller's map into [0], so later caller mutations
	// cannot corrupt the history.
	blockedHist [3]sim.Bitset

	hist     []histEntry
	histHead int
	histLen  int
	histBase int
	histFree []histEntry

	uf ufScratch // knowledge-checker scratch (see ConnectedNow)

	metrics *obs.StackMetrics
	last    Counters
	audit   *audit.Engine

	// faults/inj: the deterministic fault layer. inj drops or
	// duplicates group-level messages at the central-queue merge; the
	// crash schedule composes crashed nodes into every round's blocked
	// set (a crashed node is unresponsive, loses epoch updates, and on
	// restart recovers state through the every-round S(x) broadcast).
	faults     fault.Spec
	inj        fault.Gate // composed injector + latency deadline; nil = nothing can touch delivery
	lat        sim.Latency
	wasCrashed sim.Bitset

	// Sharded execution (see shard.go).
	shards     int
	pool       *sim.Pool
	acc        []Acc
	leaders    []int32 // per-group leader slot this round, −1 = stalled
	groupShard []uint8 // group -> owning worker for assignment routing
	vidShard   []uint8 // label -> owning worker for delivery
	deliverIdx []int32 // per-label fault-injection index scratch
	simPR      int

	// direct: single-worker fast path. With one shard and a nil
	// delivery gate, requests and responses append straight to the
	// target queues at generation time — the generation order of the
	// lone worker IS the serial per-target arrival order, so results
	// are byte-identical to the outbox path while skipping a full
	// write-read-scatter pass over every message. Recomputed each Step;
	// a second worker or ANY non-nil gate falls back to the outboxes.
	//
	// Gating proof: the fast path changes only the mechanics of
	// delivery, never its outcome, and that equivalence holds exactly
	// when every generated message is delivered, once, in generation
	// order. Everything that can violate that premise flows through
	// inj: message drop/dup and partition windows via
	// fault.Spec.Injector (non-nil iff Drop, Dup, or PartWin is set),
	// and the latency deadline via fault.ComposeGate — which returns an
	// untyped nil only when none of those are active (never a non-nil
	// interface around a nil *Injector). Crash faults and state
	// corruption act on the blocked set and node state before
	// generation, so they change which messages are generated, not how
	// generated messages travel. TestDeliveryGateDisablesDirectPath
	// pins the gating; the stacks' TestDirectPathGatingMatrix pins
	// direct-vs-outbox byte-identity for each gate axis.
	direct bool
}

// New returns an engine with no nodes, groups or vertices; the
// topology adds them with Grow, Groups and Layout.
func New(spec Spec, topo Topology) *Engine {
	e := &Engine{spec: spec, topo: topo, hist: make([]histEntry, 4)}
	e.shards = sim.DefaultShards(spec.Shards)
	e.pool = sim.NewPool(e.shards)
	sim.FinalizePool(e, e.pool)
	e.acc = make([]Acc, e.shards)
	for w := range e.acc {
		e.acc[w].outReq = make([][]wireReq, e.shards)
		e.acc[w].outResp = make([][]wireResp, e.shards)
		e.acc[w].outAsg = make([][]asgEntry, e.shards)
	}
	return e
}

// Close releases the shard worker goroutines. A network dropped
// without Close has them released by a GC cleanup (sim.FinalizePool),
// so Close is an optimization, not an obligation. Stepping after Close
// still works, on one goroutine.
func (e *Engine) Close() { e.pool.Close() }

// Grow extends every slot-indexed structure to n node slots; new slots
// are not committed members.
func (e *Engine) Grow(n int) {
	if k := n - len(e.NodeR); k > 0 {
		e.NodeR = append(e.NodeR, make([]rng.RNG, k)...)
		e.ViewEpoch = append(e.ViewEpoch, make([]int32, k)...)
		e.NodeGroup = slices.Grow(e.NodeGroup, k)
		for range k {
			e.NodeGroup = append(e.NodeGroup, -1)
		}
	}
	for i := range e.blockedHist {
		e.blockedHist[i] = sim.GrowBitset(e.blockedHist[i], n)
	}
	if e.wasCrashed != nil {
		e.wasCrashed = sim.GrowBitset(e.wasCrashed, n)
	}
}

// Slot returns node id's slot, negative for a retired id.
func (e *Engine) Slot(id sim.NodeID) int { return int(id) - 1 - e.base }

// ID returns the node id of slot v.
func (e *Engine) ID(v int) sim.NodeID { return sim.NodeID(v + 1 + e.base) }

// RetireBelow drops the slots of every id below lo, which the topology
// guarantees are dead: neither committed, pending nor leaving. Only
// whole 64-slot words are dropped, and only once they make up at least
// half of the slots, so each shift's O(slots) cost is paid for by the
// joins that filled them. Every slot-indexed array, bitset and history
// entry moves down; ids, and with them every hash input and iteration
// order, stay the same. Returns the number of slots dropped (0 or a
// multiple of 64), which the topology drops from its own slot state.
// Call it between Steps or from Topology.Commit.
func (e *Engine) RetireBelow(lo sim.NodeID) int {
	k := e.Slot(lo) &^ 63
	if k <= 0 || 2*k < len(e.NodeR) {
		return 0
	}
	e.base += k
	e.NodeR = dropPrefix(e.NodeR, k)
	e.NodeGroup = dropPrefix(e.NodeGroup, k)
	e.ViewEpoch = dropPrefix(e.ViewEpoch, k)
	for i, vs := range e.members {
		e.members[i] = vs - int32(k)
	}
	for i := range e.blockedHist {
		e.blockedHist[i] = sim.DropBitsetPrefix(e.blockedHist[i], k)
	}
	if e.wasCrashed != nil {
		e.wasCrashed = sim.DropBitsetPrefix(e.wasCrashed, k)
	}
	for i := 0; i < e.histLen; i++ {
		h := e.histAt(e.histBase + i)
		h.nodeGroup = dropPrefix(h.nodeGroup, min(k, len(h.nodeGroup)))
	}
	return k
}

// dropPrefix moves s[k:] to the front of s's array and returns it.
func dropPrefix[T any](s []T, k int) []T {
	n := copy(s, s[k:])
	return s[:n]
}

// Iterations returns T = ⌈log₂ dim⌉, the pointer-doubling iterations of
// Algorithm 2 over a dim-dimensional cube.
func Iterations(dim int) int {
	t := 0
	for v := 1; v < dim; v <<= 1 {
		t++
	}
	return t
}

// Layout starts a sampling epoch: the cube has dimension dim, the
// budget of iteration i is mi[i] (so T = len(mi)−1), there are nVert
// vertices and labels lie in [0, nVid). Every vertex's state is
// emptied, keeping the arenas; Label is resized for the topology to
// fill and Route reset to −1.
func (e *Engine) Layout(dim int, mi []int, nVert, nVid int) {
	e.dim = dim
	e.T = len(mi) - 1
	e.mi = append(e.mi[:0], mi...)
	e.mset = resize(e.mset, nVert*(dim+1))
	for i := range e.mset {
		e.mset[i] = e.mset[i][:0]
	}
	e.samples = resize(e.samples, nVert)
	e.reqs = resize(e.reqs, nVert)
	e.resps = resize(e.resps, nVert)
	for v := 0; v < nVert; v++ {
		e.samples[v] = nil // a stalled final collect must see no sample
		e.reqs[v] = e.reqs[v][:0]
		e.resps[v] = e.resps[v][:0]
	}
	e.Label = resize(e.Label, nVert)
	e.Route = resize(e.Route, nVid)
	for i := range e.Route {
		e.Route[i] = -1
	}
	e.vidShard = resize(e.vidShard, nVid)
	e.deliverIdx = resize(e.deliverIdx, nVid)
	for w := 0; w < e.shards; w++ {
		lo, hi := sim.Chunk(nVid, e.shards, w)
		for x := lo; x < hi; x++ {
			e.vidShard[x] = uint8(w)
		}
	}
}

// resize returns s with length n, keeping its elements' arenas.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// Samples returns vertex v's final samples (nil until its last collect).
func (e *Engine) Samples(v int) []uint32 { return e.samples[v] }

// Load returns vertex v's multiset entries and queued messages.
func (e *Engine) Load(v int) (entries, queued int) {
	base := v * (e.dim + 1)
	for j := 1; j <= e.dim; j++ {
		entries += len(e.mset[base+j])
	}
	return entries, len(e.reqs[v]) + len(e.resps[v])
}

// IndexGroups points NodeGroup at each member's group.
func (e *Engine) IndexGroups() {
	for x, g := range e.Groups {
		for _, id := range g {
			e.NodeGroup[e.Slot(id)] = int32(x)
		}
	}
	e.members = e.members[:0]
	for v, x := range e.NodeGroup {
		if x >= 0 {
			e.members = append(e.members, int32(v))
		}
	}
}

// NextEpoch advances the epoch and records the committed topology.
func (e *Engine) NextEpoch(adj [][]int32) {
	e.Epoch++
	e.C.Epochs++
	e.Record(adj)
}

// Record stores Groups, NodeGroup and the group adjacency adj as the
// current epoch's history entry, recycling a pruned entry's arenas,
// then prunes every entry no committed member's view still references.
func (e *Engine) Record(adj [][]int32) {
	var h histEntry
	if k := len(e.histFree); k > 0 {
		h = e.histFree[k-1]
		e.histFree = e.histFree[:k-1]
	}
	h.groups = resize(h.groups, len(e.Groups))
	for x, g := range e.Groups {
		h.groups[x] = append(h.groups[x][:0], g...)
	}
	h.adj = resize(h.adj, len(adj))
	for x, a := range adj {
		h.adj[x] = append(h.adj[x][:0], a...)
	}
	h.nodeGroup = append(h.nodeGroup[:0], e.NodeGroup...)
	if e.histLen == len(e.hist) {
		grown := make([]histEntry, 2*len(e.hist))
		for i := 0; i < e.histLen; i++ {
			grown[i] = e.hist[(e.histHead+i)%len(e.hist)]
		}
		e.hist = grown
		e.histHead = 0
	}
	e.hist[(e.histHead+e.histLen)%len(e.hist)] = h
	e.histLen++

	minE := e.Epoch
	for _, v := range e.members {
		if e.NodeGroup[v] >= 0 && int(e.ViewEpoch[v]) < minE {
			minE = int(e.ViewEpoch[v])
		}
	}
	for e.histBase < minE && e.histLen > 1 {
		old := e.hist[e.histHead]
		e.hist[e.histHead] = histEntry{}
		e.histFree = append(e.histFree, old)
		e.histHead = (e.histHead + 1) % len(e.hist)
		e.histLen--
		e.histBase++
	}
}

// histAt returns the recorded topology of the given epoch, which must
// lie in the ring's [histBase, histBase+histLen) window.
func (e *Engine) histAt(epoch int) *histEntry {
	return &e.hist[(e.histHead+epoch-e.histBase)%len(e.hist)]
}

// CommittedGroup returns slot v's group in the current epoch's record.
func (e *Engine) CommittedGroup(v int) int32 { return e.histAt(e.Epoch).nodeGroup[v] }

// EpochRounds returns the rounds per epoch: two real rounds
// (simulation + synchronization) per primitive round of Algorithm 2,
// plus the topology's reorganization tail — Θ(log log n).
func (e *Engine) EpochRounds() int { return 2*(2*e.T+1) + e.spec.EpochTail }

// Gated reports whether a delivery gate (injector, partition window or
// latency deadline) is attached; see the direct field.
func (e *Engine) Gated() bool { return e.inj != nil }

// Direct reports whether the last Step took the single-worker direct
// fast path.
func (e *Engine) Direct() bool { return e.direct }

// Metrics returns the attached metric bundle (nil when detached).
func (e *Engine) Metrics() *obs.StackMetrics { return e.metrics }

// SetMetrics attaches a protocol metric bundle; nil detaches. Every
// Step flushes the movement of the Counters since the previous flush
// into it. Observation only — results are identical with and without
// metrics.
func (e *Engine) SetMetrics(sm *obs.StackMetrics) {
	e.metrics = sm
	e.last = e.C
}

// flushMetrics reports the Counters' movement since the last flush into
// the attached bundle (no-op when detached), plus the group sizes when
// the groups changed. Called once per Step.
func (e *Engine) flushMetrics() {
	sm := e.metrics
	if sm == nil {
		return
	}
	cur, prev := e.C, e.last
	lane := sm.Lane()
	sm.Epochs.Add(lane, uint64(cur.Epochs-prev.Epochs))
	sm.Stalls.Add(lane, uint64(cur.Stalls-prev.Stalls))
	sm.SampleFails.Add(lane, uint64(cur.SampleFails-prev.SampleFails))
	sm.AssignFails.Add(lane, uint64(cur.AssignFails-prev.AssignFails))
	sm.EmptyGroups.Add(lane, uint64(cur.EmptyGroups-prev.EmptyGroups))
	sm.Splits.Add(lane, uint64(cur.Splits-prev.Splits))
	sm.Merges.Add(lane, uint64(cur.Merges-prev.Merges))
	sm.ForcedMerge.Add(lane, uint64(cur.ForcedMerges-prev.ForcedMerges))
	sm.Crashes.Add(lane, uint64(cur.Crashes-prev.Crashes))
	sm.Restarts.Add(lane, uint64(cur.Restarts-prev.Restarts))
	if cur.Splits > prev.Splits || cur.Merges > prev.Merges || cur.Epochs > prev.Epochs {
		for _, g := range e.Groups {
			sm.ObserveGroupSize(int64(len(g)))
		}
	}
	e.last = cur
}

// SetAudit attaches an invariant-audit engine (nil detaches), ticked
// once per Step; the topology registers its checkers on it.
func (e *Engine) SetAudit(a *audit.Engine) { e.audit = a }

// SetFaults attaches a deterministic fault specification: message
// drop/duplication and partition windows apply to the group-level
// queues, and the crash schedule takes nodes out for
// spec.RestartEpochs() epochs at a time. The zero spec detaches.
func (e *Engine) SetFaults(spec fault.Spec) {
	e.faults = spec
	e.inj = fault.ComposeGate(spec.Injector(), e.lat, e.spec.Seed)
	if spec.Crash > 0 && e.wasCrashed == nil {
		e.wasCrashed = sim.GrowBitset(nil, len(e.NodeR))
	}
}

// SetLatency attaches the discrete-event latency model in virtual-round
// form: epochs are fixed sequences of synchronous phases, so instead
// of re-ordering deliveries the model drops any message whose sampled
// delay (the same pure (seed, round, edge) hash the sim kernel uses)
// exceeds one round — see fault.ComposeGate. A model that can never
// miss the deadline (sync, or zero spread with delay <= 1) composes to
// the bare injector and the run is bit-for-bit unchanged. The zero
// value detaches.
func (e *Engine) SetLatency(lat sim.Latency) {
	if err := lat.Validate(); err != nil {
		panic(e.spec.Name + ": " + err.Error())
	}
	e.lat = lat
	e.inj = fault.ComposeGate(e.faults.Injector(), lat, e.spec.Seed)
}

// crashedNow reports whether node id is down in the current epoch: the
// pure crash schedule marks it for spec.RestartEpochs() epochs starting
// at its crash epoch, so the answer is identical no matter when or
// where it is evaluated.
func (e *Engine) crashedNow(id sim.NodeID) bool {
	for k := 0; k < e.faults.RestartEpochs(); k++ {
		if e.faults.Crashes(e.Epoch-k, uint64(id)) {
			return true
		}
	}
	return false
}

// Step executes one communication round under the given blocked set.
// The map is copied into owned bitset storage; the caller may reuse or
// mutate it freely after Step returns.
func (e *Engine) Step(blocked map[sim.NodeID]bool) Report {
	e.Round++
	defer e.flushMetrics()

	// Rotate the owned blocked history and absorb this round's set.
	b0 := e.blockedHist[2]
	e.blockedHist[2] = e.blockedHist[1]
	e.blockedHist[1] = e.blockedHist[0]
	e.blockedHist[0] = b0
	b0.Zero()
	// Blocked counts every blocked id issued so far, [1, base+slots]:
	// a retired id still counts, it just has no slot to mark.
	count := 0
	issued := sim.NodeID(e.base + len(e.NodeR))
	for id, bl := range blocked {
		if !bl || id < 1 || id > issued {
			continue
		}
		if v := e.Slot(id); v < 0 {
			count++
		} else if !b0.Test(int32(v)) {
			b0.Set(int32(v))
			count++
		}
	}
	if e.faults.Crash > 0 {
		// Compose the crash schedule into this round's blocked set: a
		// crashed node is unresponsive exactly like a DoS-blocked one,
		// loses epoch updates while down (its view goes stale —
		// volatile state), and on restart rejoins through the
		// every-round S(x) broadcast.
		for _, vs := range e.members {
			v := int(vs)
			if e.NodeGroup[v] < 0 {
				continue
			}
			if e.crashedNow(e.ID(v)) {
				if !b0.Test(int32(v)) {
					b0.Set(int32(v))
					count++
				}
				if !e.wasCrashed.Test(int32(v)) {
					e.wasCrashed.Set(int32(v))
					e.C.Crashes++
				}
			} else if e.wasCrashed.Test(int32(v)) {
				e.wasCrashed.Unset(int32(v))
				e.C.Restarts++
			}
		}
	}

	rep := Report{Round: e.Round, Epoch: e.Epoch, Blocked: count, Connected: true}

	// Single worker and nothing gating delivery (see the direct field's
	// gating proof) — only then may messages bypass the outboxes.
	e.direct = e.shards == 1 && e.inj == nil

	e.leaders = resize(e.leaders, len(e.Groups))
	e.pool.Run(e, phaseLeaders)

	// Advance the epoch protocol. The synchronization half-rounds only
	// move messages, which the central queues already represent;
	// availability was enforced at the simulation half-round via the
	// leader check.
	sampling := 2 * (2*e.T + 1)
	commit := false
	switch {
	case e.Phase < sampling:
		if e.Phase%2 == 0 {
			e.simulationRound(e.Phase / 2)
		}
	case e.Phase == sampling:
		e.assignRound()
	case e.Phase == e.EpochRounds()-1:
		// The new topology takes effect atomically in the epoch's final
		// round, when the distribute messages have reached every
		// available node.
		commit = true
		if e.pendingValid {
			e.pendingValid = false
			e.topo.Commit()
		}
	}

	// Every-round S(x) broadcast: an available node receives the state
	// its group peers sent in the previous round, provided some peer
	// was available to send it (the paper's recovery mechanism for
	// formerly blocked nodes).
	e.pool.Run(e, phaseBroadcast)

	rep.Stalls = e.mergeCounters()
	if commit {
		e.Phase = 0
	} else {
		e.Phase++
	}
	e.C.Rounds++

	if e.spec.MeasureEvery > 0 && e.Round%e.spec.MeasureEvery == 0 {
		rep.Measured = true
		rep.Connected = e.ConnectedNow()
		e.C.Measured++
		if !rep.Connected {
			e.C.Disconnected++
		}
	}
	e.audit.SetEpoch(e.Epoch)
	e.audit.Tick(e.Round)
	return rep
}

// assignRound reorganizes: every group routes its members to their new
// groups (Topology.Assign) and the pending arena collects them.
func (e *Engine) assignRound() {
	n := len(e.Groups)
	e.Pending = resize(e.Pending, n)
	e.groupShard = resize(e.groupShard, n)
	for w := 0; w < e.shards; w++ {
		lo, hi := sim.Chunk(n, e.shards, w)
		for x := lo; x < hi; x++ {
			e.groupShard[x] = uint8(w)
		}
	}
	e.pool.Run(e, phaseAssign)
	e.pool.Run(e, phaseAssignDeliver)
	e.pendingValid = true
}

// assignRange calls Topology.Assign for the worker's groups.
func (e *Engine) assignRange(w int) {
	a := &e.acc[w]
	a.groupShard = e.groupShard
	lo, hi := sim.Chunk(len(e.Groups), e.shards, w)
	for x := lo; x < hi; x++ {
		var r *rng.RNG
		if ld := e.leaders[x]; ld >= 0 {
			r = &e.NodeR[ld]
		}
		e.topo.Assign(a, x, r)
	}
}

// assignDeliverRange collects the worker's target groups' new members
// into the pending arena, in the serial arrival order, and sorts each.
func (e *Engine) assignDeliverRange(w int) {
	a := &e.acc[w]
	lo, hi := sim.Chunk(len(e.Groups), e.shards, w)
	for x := lo; x < hi; x++ {
		e.Pending[x] = e.Pending[x][:0]
	}
	for sw := range e.acc {
		a.msgs += int64(len(e.acc[sw].outAsg[w]))
		for _, m := range e.acc[sw].outAsg[w] {
			e.Pending[m.target] = append(e.Pending[m.target], m.id)
		}
	}
	for x := lo; x < hi; x++ {
		slices.Sort(e.Pending[x])
		if e.spec.CountEmpty && len(e.Pending[x]) == 0 {
			a.emptyGroups++
		}
	}
}

// leadersRange computes the per-group leader for this round over the
// worker's group range: the lowest-id available member, or — under
// Spec.RandomLeader — an available member chosen by a round-dependent
// rotation. −1 marks a stalled group. Also resets the worker's
// accumulator for the round.
func (e *Engine) leadersRange(w int) {
	a := &e.acc[w]
	a.reset()
	b0, b1 := e.blockedHist[0], e.blockedHist[1]
	lo, hi := sim.Chunk(len(e.Groups), e.shards, w)
	for x := lo; x < hi; x++ {
		ld := int32(-1)
		if !e.spec.RandomLeader {
			for _, id := range e.Groups[x] {
				v := int32(e.Slot(id))
				if !b0.Test(v) && !b1.Test(v) {
					ld = v
					break
				}
			}
		} else {
			a.avail = a.avail[:0]
			for _, id := range e.Groups[x] {
				v := int32(e.Slot(id))
				if !b0.Test(v) && !b1.Test(v) {
					a.avail = append(a.avail, v)
				}
			}
			if len(a.avail) > 0 {
				ld = a.avail[(e.Round*31+x)%len(a.avail)]
			}
		}
		e.leaders[x] = ld
		if ld < 0 {
			a.stalls++
		}
	}
}

// broadcastRange applies the every-round S(x) broadcast over the
// worker's range of member slots: a stale available member catches up
// if some peer of its indexed group could have sent it the state last
// round. Iterating slots (not group lists) gives every view exactly one
// writer even when a corrupted group list names a node twice.
func (e *Engine) broadcastRange(w int) {
	b0, b1, b2 := e.blockedHist[0], e.blockedHist[1], e.blockedHist[2]
	cur := int32(e.Epoch)
	// A partition window severs cross-component links: a peer on the
	// far side cannot deliver the S(x) state even if available.
	cut := e.faults.Partitioned(e.Round)
	lo, hi := sim.Chunk(len(e.members), e.shards, w)
	for _, vs := range e.members[lo:hi] {
		v := int(vs)
		x := e.NodeGroup[v]
		if x < 0 || b0.Test(vs) || b1.Test(vs) || e.ViewEpoch[v] == cur {
			continue
		}
		id := e.ID(v)
		for _, u := range e.Groups[x] {
			if us := int32(e.Slot(u)); u != id && !b1.Test(us) && !b2.Test(us) &&
				(!cut || e.faults.Component(uint64(id)) == e.faults.Component(uint64(u))) {
				e.ViewEpoch[v] = cur
				break
			}
		}
	}
}

// Snapshot publishes the committed topology at group granularity —
// exactly the information the paper allows the adversary to see.
// Groups and adjacency are deep copies: history arenas are recycled,
// and a dos.Buffer may retain the snapshot past this epoch.
func (e *Engine) Snapshot() *dos.Snapshot {
	h := e.histAt(e.Epoch)
	groups := make([][]sim.NodeID, len(h.groups))
	for i, g := range h.groups {
		groups[i] = slices.Clone(g)
	}
	adj := make([][]int32, len(h.adj))
	for i, a := range h.adj {
		adj[i] = slices.Clone(a)
	}
	return &dos.Snapshot{Round: e.Round, Groups: groups, Adj: adj}
}
