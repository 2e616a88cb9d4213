package sampling

import (
	"overlaynet/internal/hgraph"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// WalkHGraph performs a centralized simple random walk of the given
// length on an ℍ-graph and returns the endpoint. This is the reference
// the distributed primitives are validated against: by Lemma 2 the
// endpoint of a ⌈2α·log_{d/4} n⌉-step walk is almost uniform.
func WalkHGraph(r *rng.RNG, h *hgraph.HGraph, start, steps int) int {
	v := start
	d := h.D()
	for s := 0; s < steps; s++ {
		// Simple random walk on the multigraph: pick one of the d
		// incident edge endpoints (with multiplicity) uniformly.
		e := r.Intn(d)
		c := h.Cycle(e / 2)
		if e%2 == 0 {
			v = c.Pred(v)
		} else {
			v = c.Succ(v)
		}
	}
	return v
}

// WalkHypercube performs the classic d-round coin-flip walk of Section
// 2.3 on the d-dimensional binary hypercube: in round i the token
// moves to n_i(v) with probability 1/2, else stays. The endpoint is
// exactly uniform over all 2^d vertices.
func WalkHypercube(r *rng.RNG, d int, start hypercube.Vertex) hypercube.Vertex {
	v := start
	for i := 1; i <= d; i++ {
		if r.Coin() {
			v = hypercube.Neighbor(v, i)
		}
	}
	return v
}

// TokenWalkResult is the outcome of a distributed token-walk baseline.
type TokenWalkResult struct {
	// Samples[v] are the ids sampled by node v (graph vertices).
	Samples [][]int
	// Rounds is the number of communication rounds used.
	Rounds int
	// MaxNodeBits is the largest per-node per-round communication work.
	MaxNodeBits int64
}

type walkToken struct {
	Origin int32
	Step   int32
}

type walkAnswer struct {
	Endpoint int32
}

// BaselineWalkHGraph is the standard distributed random-walk sampler
// the paper improves upon (cf. Das Sarma et al.): every node launches k
// tokens that take `steps` simple-random-walk steps, one step per
// round; the final holder then reports its id to the origin directly
// (an overlay shortcut, 1 extra round). Rounds = steps + 1, i.e.
// Θ(log n) — exponentially slower than Algorithm 1's O(log log n).
func BaselineWalkHGraph(seed uint64, h *hgraph.HGraph, k, steps int) *TokenWalkResult {
	n := h.N()
	net := sim.NewNetwork(sim.Config{Seed: seed})
	res := &TokenWalkResult{Samples: make([][]int, n), Rounds: steps + 1}
	idBits := sim.IDBits(n)
	d := h.D()

	idOf := func(v int) sim.NodeID { return sim.NodeID(v + 1) }

	for v := 0; v < n; v++ {
		v := v
		moveToken := func(ctx *sim.Ctx, tok walkToken) {
			e := ctx.RNG().Intn(d)
			c := h.Cycle(e / 2)
			var w int
			if e%2 == 0 {
				w = c.Pred(v)
			} else {
				w = c.Succ(v)
			}
			ctx.Send(idOf(w), tok, 2*idBits)
		}
		started := false
		net.SpawnHandler(idOf(v), sim.HandlerFunc(func(ctx *sim.Ctx, inbox []sim.Message) bool {
			if !started {
				started = true
				for j := 0; j < k; j++ {
					moveToken(ctx, walkToken{Origin: int32(v), Step: 1})
				}
				return true
			}
			if ctx.Round() > steps+1 {
				// Collect answers and stop.
				for _, m := range inbox {
					if a, ok := m.Payload.(walkAnswer); ok {
						res.Samples[v] = append(res.Samples[v], int(a.Endpoint))
					}
				}
				return false
			}
			for _, m := range inbox {
				switch t := m.Payload.(type) {
				case walkToken:
					if int(t.Step) >= steps {
						// Walk complete: report own id to origin.
						ctx.Send(idOf(int(t.Origin)), walkAnswer{Endpoint: int32(v)}, idBits)
					} else {
						t.Step++
						moveToken(ctx, t)
					}
				case walkAnswer:
					res.Samples[v] = append(res.Samples[v], int(t.Endpoint))
				}
			}
			return true
		}))
	}
	net.Run(steps + 2)
	net.Shutdown()
	for _, w := range net.Work() {
		if w.MaxNodeBits > res.MaxNodeBits {
			res.MaxNodeBits = w.MaxNodeBits
		}
	}
	return res
}

// BaselineWalkHypercube is the distributed d-round coin-flip sampler of
// Section 2.3: rounds = d + 1 (Θ(log n)), again exponentially slower
// than Algorithm 2.
func BaselineWalkHypercube(seed uint64, dim, k int) *TokenWalkResult {
	n := hypercube.N(dim)
	net := sim.NewNetwork(sim.Config{Seed: seed})
	res := &TokenWalkResult{Samples: make([][]int, n), Rounds: dim + 1}
	idBits := sim.IDBits(n)

	idOf := func(v int) sim.NodeID { return sim.NodeID(v + 1) }

	for v := 0; v < n; v++ {
		v := hypercube.Vertex(v)
		// Tokens held by this node at the start of the current step
		// (their origins); round s ≤ dim moves them along coordinate s,
		// round dim+1 reports the endpoints, round dim+2 collects.
		var mine []int32
		for j := 0; j < k; j++ {
			mine = append(mine, int32(v))
		}
		round := 0
		net.SpawnHandler(idOf(int(v)), sim.HandlerFunc(func(ctx *sim.Ctx, inbox []sim.Message) bool {
			round++
			if round == dim+2 {
				for _, m := range inbox {
					if a, ok := m.Payload.(walkAnswer); ok {
						res.Samples[int(v)] = append(res.Samples[int(v)], int(a.Endpoint))
					}
				}
				return false
			}
			for _, m := range inbox {
				if t, ok := m.Payload.(walkToken); ok {
					mine = append(mine, t.Origin)
				}
			}
			if round == dim+1 {
				// Report endpoints to origins.
				for _, origin := range mine {
					ctx.Send(idOf(int(origin)), walkAnswer{Endpoint: int32(v)}, idBits)
				}
				return true
			}
			r := ctx.RNG()
			var keep []int32
			for _, origin := range mine {
				if r.Coin() {
					ctx.Send(idOf(int(hypercube.Neighbor(v, round))), walkToken{Origin: origin, Step: int32(round)}, 2*idBits)
				} else {
					keep = append(keep, origin)
				}
			}
			mine = keep
			return true
		}))
	}
	net.Run(dim + 2)
	net.Shutdown()
	for _, w := range net.Work() {
		if w.MaxNodeBits > res.MaxNodeBits {
			res.MaxNodeBits = w.MaxNodeBits
		}
	}
	return res
}
