package sampling

import (
	"sort"
	"sync/atomic"

	"overlaynet/internal/sim"
)

// BudgetStats tallies the sampling protocol's request budget across all
// nodes of a network, for the audit layer's conservation check: every
// request issued is answered by exactly one served grant (so with no
// message faults Issued == Served after each sampling window), and
// Refused counts extraction fallbacks where an empty multiset forced a
// node to substitute itself. ReqBatches/RespBatches count the Send
// calls, which reconcile against the RoundWork message totals of the
// sampling rounds. Fields are atomic because every node of a network
// shares one BudgetStats, and handlers run concurrently on the
// kernel's shard workers.
type BudgetStats struct {
	Issued, Served, Refused atomic.Int64
	ReqBatches, RespBatches atomic.Int64
}

// BudgetSnapshot is a plain-value copy of BudgetStats.
type BudgetSnapshot struct {
	Issued, Served, Refused, ReqBatches, RespBatches int64
}

// Snapshot reads the counters; call it only between rounds (the driver
// side), when no node handler is mutating them.
func (b *BudgetStats) Snapshot() BudgetSnapshot {
	return BudgetSnapshot{
		Issued:      b.Issued.Load(),
		Served:      b.Served.Load(),
		Refused:     b.Refused.Load(),
		ReqBatches:  b.ReqBatches.Load(),
		RespBatches: b.RespBatches.Load(),
	}
}

// HGraphSampler is the per-node part of Algorithm 1 (rapid node
// sampling in ℍ-graphs) in event-driven state-machine form, so that
// handler-style node programs (sim.Handler) can run rapid sampling as a
// sub-phase without a goroutine to park. Usage:
//
//	Start(ctx, ...)              // in some round r: local walks + first requests
//	for each following round:    // rounds r+1 .. r+2T
//	    done := HandleRound(ctx, inbox, onOther)
//	Samples()                    // after HandleRound returns true
//
// HandleRound returns true at the end of round r+2T, i.e. after exactly
// 2·T() rounds. All nodes of the network must drive their samplers in
// the same rounds with the same parameters. RapidHGraph runs it as a
// whole protocol; the reconfiguration network of Section 4 runs it as a
// sub-phase of each epoch.
type HGraphSampler struct {
	p      HGraphParams
	self   int
	idOf   func(int) sim.NodeID
	fail   *int
	stats  *BudgetStats
	idBits int
	T      int
	step   int // completed HandleRound calls; odd = serve, even = collect
	M      Multiset[int32]
}

// Start begins a sampling run in the current round: it performs the
// phase-1 local walks (walks of length 1 over the neighbor multiset)
// and sends the first request batches. neighbors is the node's
// multigraph neighbor list with multiplicity (length p.D); idOf maps
// graph vertices to sim ids; fail (optional) counts extraction-from-
// empty events; stats (optional) is the shared budget tally.
func (s *HGraphSampler) Start(ctx *sim.Ctx, p HGraphParams, self int, neighbors []int,
	idOf func(int) sim.NodeID, fail *int, stats *BudgetStats) {

	s.p = p
	s.self = self
	s.idOf = idOf
	s.fail = fail
	s.stats = stats
	s.idBits = sim.IDBits(p.N)
	s.T = p.T()
	s.step = 0
	s.M = Multiset[int32]{}

	r := ctx.RNG()
	m0 := p.M(0)
	for j := 0; j < m0; j++ {
		s.M.Add(int32(neighbors[r.Intn(len(neighbors))]))
	}
	s.sendRequests(ctx, 1)
}

// extract draws one walk endpoint from the multiset, substituting the
// node itself (and counting the refusal) when the multiset is empty.
func (s *HGraphSampler) extract(ctx *sim.Ctx) int32 {
	w, ok := s.M.Extract(ctx.RNG())
	if !ok {
		if s.fail != nil {
			*s.fail++
		}
		if s.stats != nil {
			s.stats.Refused.Add(1)
		}
		return int32(s.self)
	}
	return w
}

// sendRequests issues iteration i's walk-extension requests, batched
// per target (identical targets collapse into one reqBatch message).
func (s *HGraphSampler) sendRequests(ctx *sim.Ctx, i int) {
	mi := s.p.M(i)
	targets := make([]int32, mi)
	for j := 0; j < mi; j++ {
		targets[j] = s.extract(ctx)
	}
	if s.stats != nil {
		s.stats.Issued.Add(int64(mi))
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a] < targets[b] })
	for j := 0; j < mi; {
		k := j
		for k < mi && targets[k] == targets[j] {
			k++
		}
		count := k - j
		ctx.Send(s.idOf(int(targets[j])), reqBatch{Count: int32(count)}, count*s.idBits)
		if s.stats != nil {
			s.stats.ReqBatches.Add(1)
		}
		j = k
	}
}

// HandleRound consumes one round's inbox. Odd rounds since Start serve
// the incoming walk-extension requests; even rounds collect the
// responses into the multiset and issue the next iteration's requests.
// onOther (optional) receives messages that do not belong to the
// sampling protocol. Returns true when the run is complete (after 2·T()
// rounds); the caller then reads Samples().
func (s *HGraphSampler) HandleRound(ctx *sim.Ctx, inbox []sim.Message, onOther func(sim.Message)) bool {
	s.step++
	if s.step&1 == 1 {
		// Serve round: answer each request batch with freshly extracted
		// walk endpoints.
		for _, m := range inbox {
			rb, ok := m.Payload.(reqBatch)
			if !ok {
				if onOther != nil {
					onOther(m)
				}
				continue
			}
			ids := make([]int32, rb.Count)
			for k := range ids {
				ids[k] = s.extract(ctx)
			}
			ctx.Send(m.From, respBatch{IDs: ids}, len(ids)*s.idBits)
			if s.stats != nil {
				s.stats.Served.Add(int64(rb.Count))
				s.stats.RespBatches.Add(1)
			}
		}
		return false
	}
	// Collect round for iteration i: the responses replace the multiset
	// (the walks grew by 2^(i-1) steps).
	i := s.step / 2
	collected := make([]int32, 0, s.p.M(i))
	for _, m := range inbox {
		rb, ok := m.Payload.(respBatch)
		if !ok {
			if onOther != nil {
				onOther(m)
			}
			continue
		}
		collected = append(collected, rb.IDs...)
	}
	s.M.Reset(collected)
	if i < s.T {
		s.sendRequests(ctx, i+1)
		return false
	}
	return true
}

// Samples returns the sampled vertices once HandleRound has returned
// true (length p.Samples() = m_T).
func (s *HGraphSampler) Samples() []int {
	out := make([]int, s.M.Len())
	for k, w := range s.M.Items() {
		out[k] = int(w)
	}
	return out
}
