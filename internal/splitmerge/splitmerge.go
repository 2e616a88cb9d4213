// Package splitmerge implements the churn- and DoS-resistant overlay of
// Section 6: the supernode hypercube of Section 5 extended with
// variable-length supernode labels. Supernodes split and merge to keep
// every group size within Equation (1), c·d(x) − c < |R(x)| < 2c·d(x),
// under churn; Lemma 18 keeps the dimension spread |d(x) − d(y)| ≤ 2.
//
// The sampling primitive is modified as the paper prescribes — each
// supernode is chosen with probability 2^{−d(x)} — by running the
// hypercube primitive over VIRTUAL vertices: every supernode simulates
// the 2^{Dmax−d(x)} leaves of its label subtree in the Dmax-cube, where
// Dmax is the maximum current dimension. A uniform Dmax-bit sample then
// lands on supernode x with probability exactly 2^{−d(x)}. Since Dmax
// need not be a power of two, the pointer-doubling runs the ragged
// variant: a list whose extension block would exceed Dmax simply
// carries over, already complete.
//
// The round pipeline — the replicated group-state simulation, leader
// election, delivery under faults and latency, the S(x) broadcast, the
// knowledge history and the connectivity checker — is the shared
// engine of package groupsim (see DESIGN.md), as for package supernode.
// This package is its label-tree topology: the labels and their
// per-epoch adjacency, the virtual vertices with the dense vidOwner
// table that replaces a per-message label search, the coin fill, the
// reshuffled assignment through the label owners with joiners and
// leavers, and the split/merge normalization at every commit. Node
// slots are allocated at Join, since ids grow monotonically, and go
// dead at the commit after Leave; every commit then retires the dead
// id prefix (groupsim.Engine.RetireBelow), so the slot state stays
// bounded by the live id span however long the churn runs.
package splitmerge

import (
	"fmt"
	"math"
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/groupsim"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/obs"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Config configures the Section 6 network.
type Config struct {
	Seed uint64
	// N0 is the initial node count.
	N0 int
	// C is Equation (1)'s constant c (default 4).
	C int
	// Epsilon is the sampling budget slack (default 1).
	Epsilon float64
	// MeasureEvery controls connectivity measurement (1 = every round,
	// negative = never).
	MeasureEvery int
	// Shards is the intra-round worker count (0 consults the
	// OVERLAYNET_SHARDS environment variable, then 1). Results are
	// byte-identical at any value.
	Shards int
}

// Validate reports whether the configuration is usable, so CLIs can
// turn bad flag values into error messages instead of stack traces.
// New still panics on the same conditions.
func (cfg Config) Validate() error {
	c := cfg.C
	if c == 0 {
		c = 4
	}
	if c < 0 {
		return fmt.Errorf("splitmerge: group-size constant %d must be positive", c)
	}
	if cfg.Epsilon < 0 {
		return fmt.Errorf("splitmerge: epsilon %g must be positive", cfg.Epsilon)
	}
	if cfg.N0 < 8*c {
		return fmt.Errorf("splitmerge: n0 = %d too small for c = %d (need at least %d)", cfg.N0, c, 8*c)
	}
	return nil
}

// Stats aggregates protocol health counters.
type Stats struct {
	Rounds       int
	Epochs       int
	Stalls       int // group-without-available-member events
	SampleFails  int // multiset underflow in the simulated primitive
	AssignFails  int // members beyond the sample budget
	Splits       int
	Merges       int
	ForcedMerges int // subtree merges forced by a missing sibling
	Disconnected int
	Measured     int
	// MaxDimSpread is the largest observed max−min dimension
	// difference (Lemma 18: ≤ 2).
	MaxDimSpread int
	// Eq1Violations counts supernodes violating Equation (1) after a
	// completed split/merge normalization.
	Eq1Violations int
	FaultDrops    int // supernode messages lost to injected faults
	FaultDups     int // supernode messages duplicated by injected faults
	Crashes       int // node-crash events from the fault schedule
	Restarts      int // crashed nodes that came back
	// Messages counts supernode-level protocol messages (sampling
	// requests/responses and reorganization assignments) — the work
	// measure behind the scale experiment's bytes/node-round column.
	Messages int64
}

// RoundReport summarizes one round.
type RoundReport struct {
	Round     int
	Epoch     int
	Blocked   int
	Connected bool
	Measured  bool
	Stalls    int
}

type super struct {
	label   hypercube.Label
	members []sim.NodeID // committed members, sorted
	pending []sim.NodeID // joiners waiting for the next commit
	// vlo, vhi: the engine vertices this group simulates in the current
	// epoch — its label subtree's leaves, from prepareEpoch. A group
	// created mid-epoch (by a repair) simulates none until the next one.
	vlo, vhi int32
}

// Network is the Section 6 overlay: the groupsim engine over the label
// tree, with the 2^(Dmax−d(x)) virtual vertices of each label subtree.
type Network struct {
	cfg    Config
	eng    *groupsim.Engine
	r      *rng.RNG
	supers []*super // sorted by label

	// leaving is the global departure set (slot-indexed, like the
	// engine's slot state) with its id list for the commit sweep.
	// Membership is id-keyed, so one global set replaces a
	// per-supernode one that splits and merges would have to copy.
	leaving    sim.Bitset
	leavingIDs []sim.NodeID

	dmax   int
	mi     []int
	nextID sim.NodeID
	adj    [][]int32 // per-commit label adjacency scratch

	// vidOwner maps every dmax-bit virtual label to the supers index
	// owning it this epoch (−1: none), replacing a per-message label
	// search.
	vidOwner []int32

	maxDimSpread  int // Stats.MaxDimSpread
	eq1Violations int // Stats.Eq1Violations
}

// labelTree is the Network as the engine's groupsim.Topology.
type labelTree Network

// New builds the initial network: the label tree starts at the unique
// dimension d with 2^d·2cd < n ≤ 2^{d+1}·2c(d+1) (Lemma 18), nodes are
// assigned uniformly, and a split/merge normalization enforces
// Equation (1).
func New(cfg Config) *Network {
	if cfg.C == 0 {
		cfg.C = 4
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	if cfg.MeasureEvery == 0 {
		cfg.MeasureEvery = 1
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	nw := &Network{cfg: cfg, r: rng.New(cfg.Seed)}
	nw.eng = groupsim.New(groupsim.Spec{
		Name: "splitmerge", Seed: cfg.Seed, Shards: cfg.Shards, MeasureEvery: cfg.MeasureEvery,
		RespOffset: 1 << 32, EpochTail: 6,
	}, (*labelTree)(nw))
	d := 1
	for (1<<(d+1))*2*cfg.C*(d+1) < cfg.N0 {
		d++
	}
	for x := 0; x < 1<<d; x++ {
		nw.supers = append(nw.supers, &super{label: hypercube.MakeLabel(uint64(x), d)})
	}
	nw.growNodes(cfg.N0)
	for v := 0; v < cfg.N0; v++ {
		id := nw.eng.ID(v)
		nw.eng.NodeR[v] = *nw.r.Split(uint64(id))
		x := nw.r.Intn(len(nw.supers))
		nw.supers[x].members = append(nw.supers[x].members, id)
	}
	nw.nextID = sim.NodeID(cfg.N0 + 1)

	nw.normalize()
	nw.indexMembers()
	nw.eng.Record(nw.adjacency())
	nw.prepareEpoch()
	return nw
}

// growNodes extends every slot-indexed structure to cover n node slots
// (new slots are not committed members).
func (nw *Network) growNodes(n int) {
	nw.eng.Grow(n)
	nw.leaving = sim.GrowBitset(nw.leaving, n)
}

// retire drops the slots of the dead id prefix (see
// groupsim.Engine.RetireBelow). It runs at the commit, after joiners
// became members and leavers departed, so the lowest live id is the
// lowest committed one.
func (nw *Network) retire() {
	lo := nw.nextID
	for v, x := range nw.eng.NodeGroup {
		if x >= 0 {
			lo = nw.eng.ID(v)
			break
		}
	}
	if k := nw.eng.RetireBelow(lo); k > 0 {
		nw.leaving = sim.DropBitsetPrefix(nw.leaving, k)
	}
}

// Close releases the shard worker goroutines; see groupsim.Engine.Close.
func (nw *Network) Close() { nw.eng.Close() }

// Engine returns the shared group-simulation engine the network runs
// on, for tests that inspect its state; stepping it directly bypasses
// the network's bookkeeping.
func (nw *Network) Engine() *groupsim.Engine { return nw.eng }

// superOf returns the supers index of a committed member, −1 otherwise.
func (nw *Network) superOf(id sim.NodeID) int32 {
	v := nw.eng.Slot(id)
	if v < 0 || v >= len(nw.eng.NodeGroup) {
		return -1
	}
	return nw.eng.NodeGroup[v]
}

// N returns the committed member count.
func (nw *Network) N() int {
	n := 0
	for _, s := range nw.supers {
		n += len(s.members)
	}
	return n
}

// NumSupers returns the current supernode count.
func (nw *Network) NumSupers() int { return len(nw.supers) }

// Epoch returns the number of completed reorganizations.
func (nw *Network) Epoch() int { return nw.eng.Epoch }

// Round returns the number of completed rounds.
func (nw *Network) Round() int { return nw.eng.Round }

// StatsSnapshot returns the health counters.
func (nw *Network) StatsSnapshot() Stats {
	c := nw.eng.C
	return Stats{
		Rounds: c.Rounds, Epochs: c.Epochs, Stalls: c.Stalls,
		SampleFails: c.SampleFails, AssignFails: c.AssignFails,
		Splits: c.Splits, Merges: c.Merges, ForcedMerges: c.ForcedMerges,
		Disconnected: c.Disconnected, Measured: c.Measured,
		MaxDimSpread: nw.maxDimSpread, Eq1Violations: nw.eq1Violations,
		FaultDrops: c.FaultDrops, FaultDups: c.FaultDups, Crashes: c.Crashes, Restarts: c.Restarts,
		Messages: c.Messages,
	}
}

// DimRange returns the minimum and maximum supernode dimensions.
func (nw *Network) DimRange() (min, max int) {
	min, max = 64, 0
	for _, s := range nw.supers {
		d := s.label.Dim()
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return
}

// GroupSizes returns the committed group sizes.
func (nw *Network) GroupSizes() []int {
	out := make([]int, len(nw.supers))
	for i, s := range nw.supers {
		out[i] = len(s.members)
	}
	return out
}

// Labels returns the current supernode labels (sorted).
func (nw *Network) Labels() []hypercube.Label {
	out := make([]hypercube.Label, len(nw.supers))
	for i, s := range nw.supers {
		out[i] = s.label
	}
	return out
}

// EpochRounds returns rounds per epoch: the simulated primitive (two
// real rounds per primitive round) plus four reorganization rounds and
// two organized split/merge rounds — Θ(log log n).
func (nw *Network) EpochRounds() int { return nw.eng.EpochRounds() }

// Eq1Holds reports whether every supernode's size lies in the band the
// split/merge triggers maintain: c·d(x)−c ≤ |R(x)| ≤ 2c·d(x) (the
// closure of Equation (1); the paper splits only when the size exceeds
// the upper bound and merges only below the lower one).
func (nw *Network) Eq1Holds() bool {
	c := nw.cfg.C
	for _, s := range nw.supers {
		d := s.label.Dim()
		if len(s.members) < c*d-c || len(s.members) > 2*c*d {
			return false
		}
	}
	return true
}

// SetMetrics attaches a protocol metric bundle (obs.StackMetrics for
// the "splitmerge" stack); see groupsim.Engine.SetMetrics.
func (nw *Network) SetMetrics(sm *obs.StackMetrics) { nw.eng.SetMetrics(sm) }

// SetAudit attaches (or, with nil, detaches) an invariant engine. The
// registered checkers run every engine-tick against the committed
// topology: Equation (1)'s group-size band, Lemma 18's dimension
// spread, membership-index consistency, label coverage, and
// connectivity of the non-blocked subgraph.
func (nw *Network) SetAudit(e *audit.Engine) {
	nw.eng.SetAudit(e)
	if e == nil {
		return
	}
	e.Register("eq1-group-size", func() []audit.Violation {
		c := nw.cfg.C
		var out []audit.Violation
		for _, s := range nw.supers {
			d := s.label.Dim()
			if n := len(s.members); n < c*d-c || n > 2*c*d {
				out = append(out, audit.Violation{
					Detail: fmt.Sprintf("group %v (dim %d) has %d members, Equation (1) band is [%d, %d]",
						s.label, d, n, c*d-c, 2*c*d),
				})
			}
		}
		return out
	})
	e.Register("dim-spread", func() []audit.Violation {
		if min, max := nw.DimRange(); max-min > 2 {
			return []audit.Violation{{
				Detail: fmt.Sprintf("dimension spread %d exceeds Lemma 18 bound 2 (min %d, max %d)", max-min, min, max),
			}}
		}
		return nil
	})
	e.Register("membership", nw.checkMembership)
	e.Register("label-coverage", nw.checkLabelCoverage)
	e.Register("splitmerge-connectivity", func() []audit.Violation {
		if !nw.ConnectedNow() {
			return []audit.Violation{{Detail: "non-blocked committed members are disconnected"}}
		}
		return nil
	})
}

// SetFaults installs a deterministic fault schedule; see
// groupsim.Engine.SetFaults.
func (nw *Network) SetFaults(spec fault.Spec) { nw.eng.SetFaults(spec) }

// SetLatency attaches the latency model in virtual-round form; see
// groupsim.Engine.SetLatency.
func (nw *Network) SetLatency(lat sim.Latency) { nw.eng.SetLatency(lat) }

// checkMembership verifies that every committed member sits in exactly
// one group and that the membership index agrees with group membership.
func (nw *Network) checkMembership() []audit.Violation {
	var out []audit.Violation
	bad := func(id sim.NodeID, detail string) {
		if len(out) < 16 {
			out = append(out, audit.Violation{Nodes: []uint64{uint64(id)}, Detail: detail})
		}
	}
	seen := make([]int32, len(nw.eng.NodeGroup))
	for i := range seen {
		seen[i] = -1
	}
	for x, s := range nw.supers {
		for _, id := range s.members {
			v := nw.eng.Slot(id)
			if v < 0 || v >= len(seen) {
				bad(id, fmt.Sprintf("member id %d outside the allocated slot space", id))
				continue
			}
			if prev := seen[v]; prev >= 0 {
				bad(id, fmt.Sprintf("node %d appears in groups %d and %d", id, prev, x))
				continue
			}
			seen[v] = int32(x)
			if got := nw.eng.NodeGroup[v]; got != int32(x) {
				bad(id, fmt.Sprintf("nodeSuper index says %d for node %d, membership says %d", got, id, x))
			}
		}
	}
	for v := range nw.eng.NodeGroup {
		if id := nw.eng.ID(v); nw.eng.NodeGroup[v] >= 0 && seen[v] < 0 {
			bad(id, fmt.Sprintf("node %d indexed but missing from every group", id))
		}
	}
	return out
}

// CorruptGroupForTest deliberately desynchronizes the membership index
// for the first committed member, so tests can verify the audit engine
// reports the inconsistency within its check cadence.
func (nw *Network) CorruptGroupForTest() {
	for x, s := range nw.supers {
		if len(s.members) > 0 {
			nw.eng.NodeGroup[nw.eng.Slot(s.members[0])] = int32((x + 1) % len(nw.supers))
			return
		}
	}
}

// Join introduces a new node through the given sponsor and returns its
// id; the node becomes a full member at the next commit (the paper's
// O(log log n)-round join).
func (nw *Network) Join(sponsor sim.NodeID) sim.NodeID {
	x := nw.superOf(sponsor)
	if x < 0 {
		panic(fmt.Sprintf("splitmerge: sponsor %d is not a member", sponsor))
	}
	id := nw.nextID
	nw.nextID++
	v := nw.eng.Slot(id)
	nw.growNodes(v + 1)
	nw.eng.NodeR[v] = *nw.r.Split(uint64(id))
	nw.eng.ViewEpoch[v] = int32(nw.eng.Epoch)
	nw.supers[x].pending = append(nw.supers[x].pending, id)
	return id
}

// Leave marks a member as leaving; it departs at the next commit (the
// paper's O(log log n)-round leave).
func (nw *Network) Leave(id sim.NodeID) {
	if nw.superOf(id) < 0 {
		panic(fmt.Sprintf("splitmerge: leaver %d is not a member", id))
	}
	if v := int32(nw.eng.Slot(id)); !nw.leaving.Test(v) {
		nw.leaving.Set(v)
		nw.leavingIDs = append(nw.leavingIDs, id)
	}
}

// Members returns the committed member ids, sorted (slot order is id
// order).
func (nw *Network) Members() []sim.NodeID {
	out := make([]sim.NodeID, 0, nw.N())
	for v, x := range nw.eng.NodeGroup {
		if x >= 0 {
			out = append(out, nw.eng.ID(v))
		}
	}
	return out
}

// indexMembers sorts every group and rebuilds the membership index.
func (nw *Network) indexMembers() {
	for i := range nw.eng.NodeGroup {
		nw.eng.NodeGroup[i] = -1
	}
	for _, s := range nw.supers {
		slices.Sort(s.members)
	}
	nw.syncGroups()
	nw.eng.IndexGroups()
}

// syncGroups publishes the supers' members and vertex ranges, in label
// order, as the engine's groups.
func (nw *Network) syncGroups() {
	e := nw.eng
	e.Groups, e.VLo, e.VHi = e.Groups[:0], e.VLo[:0], e.VHi[:0]
	for _, s := range nw.supers {
		e.Groups = append(e.Groups, s.members)
		e.VLo = append(e.VLo, s.vlo)
		e.VHi = append(e.VHi, s.vhi)
	}
}

// sortSupers keeps the label order invariant used by findLabel.
func (nw *Network) sortSupers() {
	slices.SortFunc(nw.supers, func(a, b *super) int {
		if a.label.Less(b.label) {
			return -1
		}
		if b.label.Less(a.label) {
			return 1
		}
		return 0
	})
}

func (nw *Network) findLabel(l hypercube.Label) int {
	lo, hi := 0, len(nw.supers)
	for lo < hi {
		mid := (lo + hi) / 2
		if nw.supers[mid].label.Less(l) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nw.supers) && nw.supers[lo].label.Equal(l) {
		return lo
	}
	return -1
}

// ownerOf returns the supernode whose label is a prefix of the
// dmax-bit virtual label w, or -1 (from the vidOwner table).
func (nw *Network) ownerOf(w uint32) int {
	if int(w) < len(nw.vidOwner) {
		return int(nw.vidOwner[w])
	}
	return -1
}

// fillVidTables rebuilds the virtual-label tables after any structural
// change: vidOwner maps every dmax-bit label to the deepest supernode
// whose label is a prefix of it (supers are sorted by (dim, bits), so
// scanning in order lets deeper labels overwrite shallower ones), and
// the engine's Route sends the label to the owner's vertex with that
// label — or drops it when the owner simulates no such vertex.
func (nw *Network) fillVidTables() {
	e := nw.eng
	nVid := 1 << nw.dmax
	if cap(nw.vidOwner) < nVid {
		nw.vidOwner = make([]int32, nVid)
	}
	nw.vidOwner = nw.vidOwner[:nVid]
	for w := range nw.vidOwner {
		nw.vidOwner[w] = -1
		e.Route[w] = -1
	}
	for si, s := range nw.supers {
		d := s.label.Dim()
		if d > nw.dmax {
			continue
		}
		base := uint32(s.label.Bits())
		for k := 0; k < 1<<(nw.dmax-d); k++ {
			nw.vidOwner[base|uint32(k)<<d] = int32(si)
		}
	}
	for si, s := range nw.supers {
		for v := s.vlo; v < s.vhi; v++ {
			if w := e.Label[v]; int(w) < nVid && nw.vidOwner[w] == int32(si) {
				e.Route[w] = v
			}
		}
	}
	nw.syncGroups()
}

// prepareEpoch starts the epoch's sampling over the virtual vertices:
// each supernode x simulates the 2^(dmax−d(x)) leaves of its subtree.
func (nw *Network) prepareEpoch() {
	_, nw.dmax = nw.DimRange()
	t := groupsim.Iterations(nw.dmax)
	// The final per-virtual-vertex sample count times the owned virtual
	// vertices must cover the group (plus joiners) with slack.
	maxNeed := 1
	nVert := 0
	for _, s := range nw.supers {
		need := len(s.members) + len(s.pending)
		own := 1 << (nw.dmax - s.label.Dim())
		maxNeed = max(maxNeed, (need+own-1)/own)
		nVert += own
	}
	cSamp := float64(2*maxNeed) / float64(nw.dmax)
	if cSamp < 1 {
		cSamp = 1
	}
	nw.mi = nw.mi[:0]
	for i := 0; i <= t; i++ {
		nw.mi = append(nw.mi, int(math.Ceil(math.Pow(1+nw.cfg.Epsilon, float64(t-i))*cSamp*float64(nw.dmax))))
	}
	e := nw.eng
	e.Layout(nw.dmax, nw.mi, nVert, 1<<nw.dmax)
	v := int32(0)
	for _, s := range nw.supers {
		d := s.label.Dim()
		s.vlo = v
		for k := 0; k < 1<<(nw.dmax-d); k++ {
			e.Label[v] = uint32(s.label.Bits()) | uint32(k)<<d
			v++
		}
		s.vhi = v
	}
	nw.fillVidTables()
}

// Fill implements groupsim.Topology with the binary coin fill: Coin()
// is the low bit of one raw draw, so the entry is w with bit j−1
// XOR-masked by that bit — same draw sequence, no data-dependent
// branch.
func (t *labelTree) Fill(w uint32, j int, list []uint32, r *rng.RNG) {
	bit := uint32(1) << (j - 1)
	for k := range list {
		list[k] = w ^ (bit & -uint32(r.Uint64()&1))
	}
}

// Assign implements groupsim.Topology: the group's staying members plus
// its pending joiners (sorted by id) go to the owners of its virtual
// vertices' samples, reshuffled with the leader's RNG — to supernode y
// with probability 2^(−d(y)). A stalled group's assignees stay put
// (already counted as a stall).
func (t *labelTree) Assign(a *groupsim.Acc, si int, r *rng.RNG) {
	s := t.supers[si]
	assignees := a.IDs[:0]
	for _, id := range s.members {
		if !t.leaving.Test(int32(t.eng.Slot(id))) {
			assignees = append(assignees, id)
		}
	}
	assignees = append(assignees, s.pending...)
	a.IDs = assignees
	if r == nil {
		for _, id := range assignees {
			a.Route(int32(si), id)
		}
		return
	}
	samples := a.Labels[:0]
	for v := s.vlo; v < s.vhi; v++ {
		samples = append(samples, t.eng.Samples(int(v))...)
	}
	a.Labels = samples
	rng.ShuffleSlice(r, samples)
	for i, id := range assignees {
		var vw uint32
		switch {
		case len(samples) == 0:
			a.AssignFails++
			vw = uint32(s.label.Bits())
		case i < len(samples):
			vw = samples[i]
		default:
			a.AssignFails++
			vw = samples[i%len(samples)]
		}
		oi := (*Network)(t).ownerOf(vw)
		if oi < 0 {
			a.AssignFails++
			oi = si
		}
		a.Route(int32(oi), id)
	}
}

// Commit implements groupsim.Topology: joiners become members, leavers
// depart, the organized split/merge restores Equation (1), and the next
// epoch's label tree, history entry and virtual vertices are set up.
// The member arenas swap with the pending arenas, so churn-free commits
// allocate nothing.
func (t *labelTree) Commit() {
	nw := (*Network)(t)
	for _, id := range nw.leavingIDs {
		// Departed: the slot goes dead at the reindex below (it was
		// excluded from every new group); clear the departure mark.
		nw.leaving.Unset(int32(nw.eng.Slot(id)))
	}
	nw.leavingIDs = nw.leavingIDs[:0]
	for si, s := range nw.supers {
		s.members, nw.eng.Pending[si] = nw.eng.Pending[si], s.members
		s.pending = s.pending[:0]
	}
	nw.normalize()
	nw.indexMembers()
	nw.eng.NextEpoch(nw.adjacency())
	nw.retire()
	nw.prepareEpoch()
}

// adjacency returns the supernode adjacency of the current label tree
// (in the reused adj scratch).
func (nw *Network) adjacency() [][]int32 {
	if cap(nw.adj) < len(nw.supers) {
		nw.adj = append(nw.adj[:cap(nw.adj)], make([][]int32, len(nw.supers)-cap(nw.adj))...)
	}
	nw.adj = nw.adj[:len(nw.supers)]
	for i := range nw.supers {
		nw.adj[i] = nw.adj[i][:0]
		for j := range nw.supers {
			if i != j && hypercube.Connected(nw.supers[i].label, nw.supers[j].label) {
				nw.adj[i] = append(nw.adj[i], int32(j))
			}
		}
	}
	return nw.adj
}

// Step executes one round under the given blocked set. The map is
// copied into owned bitset storage; the caller may reuse or mutate it
// freely after Step returns.
func (nw *Network) Step(blocked map[sim.NodeID]bool) RoundReport {
	r := nw.eng.Step(blocked)
	return RoundReport{Round: r.Round, Epoch: r.Epoch, Blocked: r.Blocked, Connected: r.Connected,
		Measured: r.Measured, Stalls: r.Stalls}
}

// normalize enforces Equation (1) by splitting oversized and merging
// undersized supernodes (the organized O(1)-round procedure of
// Lemma 18). It also updates the dimension-spread and violation stats.
func (nw *Network) normalize() {
	c := nw.cfg.C
	for iter := 0; iter < 256; iter++ {
		changed := false
		// Splits first: |R(x)| > 2c·d(x) -> two children. Members are
		// shuffled and halved so each child receives a uniformly random
		// half; the even sizes guarantee neither child falls below the
		// merge trigger, which makes the normalization terminate.
		var next []*super
		for _, s := range nw.supers {
			d := s.label.Dim()
			if len(s.members)+len(s.pending) > 2*c*d && d < 60 {
				nw.eng.C.Splits++
				changed = true
				a := &super{label: s.label.Child(0)}
				b := &super{label: s.label.Child(1)}
				var r *rng.RNG
				if len(s.members) > 0 {
					r = &nw.eng.NodeR[nw.eng.Slot(s.members[0])]
				} else {
					r = nw.r
				}
				ms := append([]sim.NodeID(nil), s.members...)
				rng.ShuffleSlice(r, ms)
				a.members = append(a.members, ms[:len(ms)/2]...)
				b.members = append(b.members, ms[len(ms)/2:]...)
				ps := append([]sim.NodeID(nil), s.pending...)
				rng.ShuffleSlice(r, ps)
				a.pending = append(a.pending, ps[:len(ps)/2]...)
				b.pending = append(b.pending, ps[len(ps)/2:]...)
				next = append(next, a, b)
			} else {
				next = append(next, s)
			}
		}
		nw.supers = next
		nw.sortSupers()

		// Merges: |R(x)| ≤ c·d(x) − c -> absorb the sibling (forcing
		// the sibling's subtree to merge first if it was split).
		merged := false
		for i := 0; i < len(nw.supers); i++ {
			s := nw.supers[i]
			d := s.label.Dim()
			if d == 0 || len(s.members)+len(s.pending) >= c*d-c {
				continue
			}
			sib := s.label.Sibling()
			lbl := s.label
			j := nw.findLabel(sib)
			if j < 0 {
				// The sibling was split: merge its whole subtree first,
				// then fall through to the sibling merge below. Stopping
				// after the subtree merge would never converge when the
				// re-assembled sibling is itself above the split
				// threshold — the next iteration's split pass would undo
				// it and the undersized group would starve forever.
				nw.mergeSubtree(sib)
				nw.eng.C.ForcedMerges++
				j = nw.findLabel(sib)
				i = nw.findLabel(lbl) // indices shifted by the subtree merge
			}
			if i >= 0 && j >= 0 {
				nw.mergeInto(i, j)
				nw.eng.C.Merges++
			}
			merged = true
			break // indices shifted; restart the scan
		}
		if merged {
			changed = true
		}
		if !changed {
			break
		}
	}
	min, max := nw.DimRange()
	if spread := max - min; spread > nw.maxDimSpread {
		nw.maxDimSpread = spread
	}
	if !nw.Eq1Holds() {
		nw.eq1Violations++
	}
}

// mergeInto merges supers[i] and supers[j] (siblings) into their parent.
func (nw *Network) mergeInto(i, j int) {
	a, b := nw.supers[i], nw.supers[j]
	parent := &super{
		label:   a.label.Parent(),
		members: append(append([]sim.NodeID(nil), a.members...), b.members...),
		pending: append(append([]sim.NodeID(nil), a.pending...), b.pending...),
	}
	var next []*super
	for k, s := range nw.supers {
		if k != i && k != j {
			next = append(next, s)
		}
	}
	nw.supers = append(next, parent)
	nw.sortSupers()
}

// mergeSubtree collapses every supernode whose label has the given
// prefix into a single supernode with that label.
func (nw *Network) mergeSubtree(prefix hypercube.Label) {
	acc := &super{label: prefix}
	var next []*super
	for _, s := range nw.supers {
		if prefix.IsAncestorOf(s.label) || prefix.Equal(s.label) {
			acc.members = append(acc.members, s.members...)
			acc.pending = append(acc.pending, s.pending...)
		} else {
			next = append(next, s)
		}
	}
	nw.supers = append(next, acc)
	nw.sortSupers()
}

// Snapshot publishes the committed topology at supernode granularity;
// see groupsim.Engine.Snapshot.
func (nw *Network) Snapshot() *dos.Snapshot { return nw.eng.Snapshot() }

// ConnectedNow reports whether the non-blocked committed members form a
// connected graph under each node's (possibly stale) knowledge; see
// groupsim.Engine.ConnectedNow.
func (nw *Network) ConnectedNow() bool { return nw.eng.ConnectedNow() }

// Run drives the network under the adversary for the given rounds,
// publishing snapshots and enforcing the buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	reports := make([]RoundReport, 0, rounds)
	for i := 0; i < rounds; i++ {
		buf.Publish(nw.Snapshot())
		var blocked map[sim.NodeID]bool
		if adv != nil {
			blocked = adv.SelectBlocked(nw.eng.Round+1, nw.N(), buf.View(nw.eng.Round+1))
		}
		reports = append(reports, nw.Step(blocked))
	}
	return reports
}
