package sampling

import (
	"cmp"
	"slices"

	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// hcReq and hcResp carry their iteration I, so a copy that a latency
// model delivers in a later iteration's round is discarded instead of
// being served from (or refilling) the wrong lists.
type hcReq struct {
	I  int8
	Js []int16 // one entry per request: the dimension index j
}

type hcRespPair struct {
	V int32
	J int16
}

type hcResp struct {
	I     int8
	Pairs []hcRespPair
}

// RapidHypercube runs Algorithm 2 (rapid node sampling in the binary
// hypercube) as a distributed protocol. The cube dimension must be a
// power of two (the paper's d = 2^k assumption). After T = log₂ d
// iterations every node's list M₁ holds p.Samples() vertices whose
// coordinates 1..d were all chosen independently and uniformly —
// i.e. exactly uniform samples of V (Lemma 8) — using p.Rounds() =
// O(log log n) communication rounds.
func RapidHypercube(seed uint64, p HypercubeParams) *RapidResult {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	// Phase 1 walks randomize exactly coordinate j: n_j(u) or u by a
	// fair coin.
	return runCube(&cubeRun{
		d: p.Dim, T: p.T(), m: p.M, n: hypercube.N(p.Dim),
		walk: func(r *rng.RNG, u, j int) int32 {
			if r.Coin() {
				return int32(hypercube.Neighbor(hypercube.Vertex(u), j))
			}
			return int32(u)
		},
	}, sim.Config{Seed: seed, Shards: p.Shards, Latency: p.Latency})
}

// cubeRun is one run of Algorithm 2 or its k-ary extension: the
// parameters every node shares and the result they fill in. The two
// cubes differ only in walk, the Phase 1 one-coordinate walk from u
// along dimension j.
type cubeRun struct {
	d, T, n  int
	m        func(i int) int
	walk     func(r *rng.RNG, u, j int) int32
	idBits   int
	res      *RapidResult
	failures []int
}

// runCube spawns one cubeNode per vertex, runs the 2T+1 rounds of the
// protocol, and collects the samples and work accounting.
func runCube(c *cubeRun, cfg sim.Config) *RapidResult {
	net := sim.NewNetwork(cfg)
	c.idBits = sim.IDBits(c.n)
	c.res = &RapidResult{Samples: make([][]int, c.n), Rounds: 2*c.T + 1}
	c.failures = make([]int, c.n)
	for v := 0; v < c.n; v++ {
		net.SpawnHandler(cubeID(v), &cubeNode{c: c, u: v})
	}
	net.Run(c.res.Rounds)
	net.Shutdown()
	res := c.res
	res.Deferred = net.DeferredMessages()
	for _, w := range net.Work() {
		if w.MaxNodeBits > res.MaxNodeBits {
			res.MaxNodeBits = w.MaxNodeBits
		}
		res.TotalBits += w.TotalBits
	}
	for _, f := range c.failures {
		res.Failures += f
	}
	return res
}

func cubeID(v int) sim.NodeID { return sim.NodeID(v + 1) }

// cubeNode is one vertex u of Algorithm 2 in event-driven form. Round 1
// is Phase 1 (fill every M_j with m_0 one-coordinate walks) plus the
// first requests; iteration i then takes rounds 2i (Phase 3: serve
// requests) and 2i+1 (Phase 4: refill from the responses, then Phase 2
// of iteration i+1), and the node departs after round 2T+1 with M_1 as
// its samples.
type cubeNode struct {
	c     *cubeRun
	u     int
	round int
	M     []Multiset[int32] // M[j-1] is the paper's M_j
}

func (nd *cubeNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	c := nd.c
	nd.round++
	if nd.round == 1 {
		r := ctx.RNG()
		nd.M = make([]Multiset[int32], c.d)
		m0 := c.m(0)
		for j := 1; j <= c.d; j++ {
			for k := 0; k < m0; k++ {
				nd.M[j-1].Add(c.walk(r, nd.u, j))
			}
		}
		nd.sendRequests(ctx, 1)
		return true
	}
	i := nd.round / 2
	if nd.round%2 == 0 {
		// Phase 3: a request (w, j) is served from M_{j+2^{i-1}}, whose
		// entries have coordinates j+2^{i-1}..j+2^i−1 randomized
		// relative to us.
		half := 1 << (i - 1)
		for _, m := range inbox {
			rq, ok := m.Payload.(hcReq)
			if !ok || int(rq.I) != i {
				continue
			}
			pairs := make([]hcRespPair, len(rq.Js))
			for k, j := range rq.Js {
				pairs[k] = hcRespPair{V: nd.extract(ctx, int(j)+half), J: j}
			}
			ctx.Send(m.From, hcResp{I: int8(i), Pairs: pairs}, len(pairs)*c.idBits)
		}
		return true
	}
	// Phase 4: clear all lists and refill from responses; Phase 2 of
	// the next iteration shares this round.
	for j := range nd.M {
		nd.M[j].Clear()
	}
	for _, m := range inbox {
		if rp, ok := m.Payload.(hcResp); ok && int(rp.I) == i {
			for _, pr := range rp.Pairs {
				nd.M[pr.J-1].Add(pr.V)
			}
		}
	}
	if i < c.T {
		nd.sendRequests(ctx, i+1)
		return true
	}
	out := make([]int, nd.M[0].Len())
	for k, w := range nd.M[0].Items() {
		out[k] = int(w)
	}
	c.res.Samples[nd.u] = out
	return false
}

// extract draws a walk endpoint from M_j, substituting u itself (a
// counted failure) when the list has run dry.
func (nd *cubeNode) extract(ctx *sim.Ctx, j int) int32 {
	w, ok := nd.M[j-1].Extract(ctx.RNG())
	if !ok {
		nd.c.failures[nd.u]++
		return int32(nd.u)
	}
	return w
}

// sendRequests is Phase 2 of iteration i: for every list index
// j ≡ 1 (mod 2^i), extract m_i walk endpoints from M_j and ask each for
// an extension in dimension block j+2^{i-1}..j+2^i−1, one batch per
// target.
func (nd *cubeNode) sendRequests(ctx *sim.Ctx, i int) {
	c := nd.c
	mi := c.m(i)
	step := 1 << i
	type req struct {
		target int32
		j      int16
	}
	var reqs []req
	for j := 1; j <= c.d; j += step {
		for k := 0; k < mi; k++ {
			reqs = append(reqs, req{target: nd.extract(ctx, j), j: int16(j)})
		}
	}
	slices.SortFunc(reqs, func(a, b req) int {
		if a.target != b.target {
			return cmp.Compare(a.target, b.target)
		}
		return cmp.Compare(a.j, b.j)
	})
	for a := 0; a < len(reqs); {
		b := a
		var js []int16
		for b < len(reqs) && reqs[b].target == reqs[a].target {
			js = append(js, reqs[b].j)
			b++
		}
		ctx.Send(cubeID(int(reqs[a].target)), hcReq{I: int8(i), Js: js}, len(js)*c.idBits)
		a = b
	}
}
