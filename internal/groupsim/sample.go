package groupsim

import (
	"math/bits"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// This file simulates Algorithm 2 (rapid node sampling) at group level.
// Every vertex holds dim multisets M_1..M_dim of cube labels. Phase 1
// fills each M_j with one-coordinate walks (Topology.Fill); iteration
// i = 1..T then extends list j ≡ 1 (mod 2^i) by the walks of list
// j + 2^(i−1) at the vertices its own entries name, in one request and
// one response round. When dim is not a power of two the doubling runs
// ragged: a list whose extension block would pass dim carries over,
// already complete. After iteration T, M_1 holds walks over all dim
// coordinates — uniform samples of the cube.

// simulationRound executes primitive round pr for every group with a
// leader. Groups without one are inert: their pending messages are
// lost, exactly as if the group could not simulate the round. Compute
// and deliver are separate pool phases so the central-queue merge
// keeps the serial per-target order.
func (e *Engine) simulationRound(pr int) {
	e.simPR = pr
	if e.direct {
		// Clear leaderless queues before generation: the outbox path
		// truncates them inside compute, before the end-of-round
		// deliver, so stale messages drop and this round's arrivals
		// survive — here arrivals appear during compute, so the
		// truncation must come first.
		for x, ld := range e.leaders {
			if ld < 0 {
				e.clearQueues(x)
			}
		}
		e.pool.Run(e, phaseSimCompute)
		return
	}
	e.pool.Run(e, phaseSimCompute)
	e.pool.Run(e, phaseSimDeliver)
}

// clearQueues drops the queued messages of group x's vertices.
func (e *Engine) clearQueues(x int) {
	for v := e.VLo[x]; v < e.VHi[x]; v++ {
		e.reqs[v] = e.reqs[v][:0]
		e.resps[v] = e.resps[v][:0]
	}
}

// simComputeRange runs primitive round simPR for the worker's groups,
// consuming each leader's RNG in the serial order (groups ascending,
// then their vertices).
func (e *Engine) simComputeRange(w int) {
	a := &e.acc[w]
	lo, hi := sim.Chunk(len(e.Groups), e.shards, w)
	for x := lo; x < hi; x++ {
		ld := e.leaders[x]
		if ld < 0 {
			if !e.direct { // direct mode truncated before generation
				e.clearQueues(x)
			}
			continue
		}
		r := &e.NodeR[ld]
		for v := e.VLo[x]; v < e.VHi[x]; v++ {
			e.vertexRound(int(v), e.simPR, r, a)
		}
	}
}

// vertexRound advances vertex v through primitive round pr.
func (e *Engine) vertexRound(v, pr int, r *rng.RNG, a *Acc) {
	d := e.dim
	base := v * (d + 1)
	switch {
	case pr == 0:
		// Phase 1: fill every list with m₀ one-coordinate walks, then
		// send the first requests.
		m0 := e.mi[0]
		for j := 1; j <= d; j++ {
			list := e.mset[base+j]
			if cap(list) < m0 {
				list = make([]uint32, m0)
			}
			list = list[:m0]
			e.topo.Fill(e.Label[v], j, list, r)
			e.mset[base+j] = list
		}
		e.sendRequests(v, 1, r, a)
	case pr%2 == 1:
		// Serve round of iteration i = (pr+1)/2.
		half := 1 << ((pr+1)/2 - 1)
		if e.direct {
			// extract() inlined by hand: the serve loop runs once per
			// message and the call was not inlinable.
			for _, rq := range e.reqs[v] {
				mx := base + int(rq.j) + half
				list := e.mset[mx]
				p := e.Label[v]
				if n := uint64(len(list)); n == 0 {
					a.sampleFails++
				} else {
					// r.Intn(n) with the Lemire fast path inlined.
					hi, lo := bits.Mul64(r.Uint64(), n)
					if lo < n {
						hi = r.Uint64nTail(hi, lo, n)
					}
					p = list[hi]
					list[hi] = list[n-1]
					e.mset[mx] = list[:n-1]
				}
				if t := e.Route[rq.from]; t >= 0 {
					e.resps[t] = append(e.resps[t], resp{v: p, j: rq.j})
				}
			}
			a.msgs += int64(len(e.reqs[v]))
		} else {
			for _, rq := range e.reqs[v] {
				p := e.extract(v, int(rq.j)+half, r, a)
				ts := e.vidShard[rq.from]
				a.outResp[ts] = append(a.outResp[ts], wireResp{target: rq.from, v: p, j: rq.j})
			}
		}
		e.reqs[v] = e.reqs[v][:0]
	default:
		// Collect round of iteration i = pr/2; send next requests.
		i := pr / 2
		step := 1 << i
		// Every list except a ragged carry-over is reset to its response
		// count: the lists that sent requests refill, the lists they
		// were extended from empty (nothing reads them again). Gather
		// with per-list cursors (d is always well under 64): count,
		// reslice each list once, then place by index.
		var cnt, cur [64]int32
		for _, rp := range e.resps[v] {
			cnt[rp.j]++
		}
		for j := 1; j <= d; j++ {
			if (j-1)%step == 0 && j+step/2 > d {
				continue
			}
			list := e.mset[base+j]
			n := int(cnt[j])
			if cap(list) < n {
				list = make([]uint32, n)
			}
			e.mset[base+j] = list[:n]
		}
		for _, rp := range e.resps[v] {
			j := int(rp.j)
			e.mset[base+j][cur[j]] = rp.v
			cur[j]++
		}
		e.resps[v] = e.resps[v][:0]
		if i < e.T {
			e.sendRequests(v, i+1, r, a)
		} else {
			// M is a multiset: extraction order is uniform. The central
			// response queues deliver in sender order, so shuffle to
			// restore the multiset semantics before the reorganization
			// consumes the samples.
			final := e.mset[base+1]
			rng.ShuffleSlice(r, final)
			e.samples[v] = final
		}
	}
}

// extract draws a uniform element from vertex v's list j, moving the
// last element into the hole (the serial multiset semantics). An empty
// list yields v's own label.
func (e *Engine) extract(v, j int, r *rng.RNG, a *Acc) uint32 {
	k := v*(e.dim+1) + j
	list := e.mset[k]
	if len(list) == 0 {
		a.sampleFails++
		return e.Label[v]
	}
	i := r.Intn(len(list))
	p := list[i]
	list[i] = list[len(list)-1]
	e.mset[k] = list[:len(list)-1]
	return p
}

// sendRequests queues iteration i's requests from vertex v into the
// worker's per-target-shard outboxes, in generation order — or, on the
// direct path, straight into the target queues. Requests to a label
// no vertex receives are counted as sent and dropped.
func (e *Engine) sendRequests(v, i int, r *rng.RNG, a *Acc) {
	d := e.dim
	step := 1 << i
	half := step / 2
	base := v * (d + 1)
	from := e.Label[v]
	m := e.mi[i]
	for j := 1; j+half <= d; j += step {
		if e.direct {
			jw := int16(j)
			mx := base + j
			for k := 0; k < m; k++ {
				list := e.mset[mx]
				target := from
				if n := uint64(len(list)); n == 0 {
					a.sampleFails++
				} else {
					// r.Intn(n) with the Lemire fast path inlined.
					hi, lo := bits.Mul64(r.Uint64(), n)
					if lo < n {
						hi = r.Uint64nTail(hi, lo, n)
					}
					target = list[hi]
					list[hi] = list[n-1]
					e.mset[mx] = list[:n-1]
				}
				if t := e.Route[target]; t >= 0 {
					e.reqs[t] = append(e.reqs[t], req{from: from, j: jw})
				}
			}
			a.msgs += int64(m)
			continue
		}
		for k := 0; k < m; k++ {
			target := e.extract(v, j, r, a)
			ts := e.vidShard[target]
			a.outReq[ts] = append(a.outReq[ts], wireReq{target: target, from: from, j: int16(j)})
		}
	}
}

// simDeliverRange merges this round's generated messages into the
// queues of the vertices the worker's label range routes to. Draining
// source workers in worker order reproduces the serial per-target
// queue order, and with a gate attached the per-label message index —
// the injection tuple's idx — matches the serial merge exactly.
// Requests and responses keep separate index spaces.
func (e *Engine) simDeliverRange(w int) {
	a := &e.acc[w]
	for sw := range e.acc {
		a.msgs += int64(len(e.acc[sw].outReq[w]) + len(e.acc[sw].outResp[w]))
	}
	if e.inj == nil {
		for sw := range e.acc {
			for _, m := range e.acc[sw].outReq[w] {
				if t := e.Route[m.target]; t >= 0 {
					e.reqs[t] = append(e.reqs[t], req{from: m.from, j: m.j})
				}
			}
			for _, m := range e.acc[sw].outResp[w] {
				if t := e.Route[m.target]; t >= 0 {
					e.resps[t] = append(e.resps[t], resp{v: m.v, j: m.j})
				}
			}
		}
		return
	}
	// Fault injection at the central-queue merge point: each queued
	// entry stands for one inter-group message, identified by a tuple
	// that is a pure function of this round's protocol state, so the
	// outcome is byte-identical for any driver configuration.
	lo, hi := sim.Chunk(len(e.Route), e.shards, w)
	idx := e.deliverIdx
	for x := lo; x < hi; x++ {
		idx[x] = 0
	}
	for sw := range e.acc {
		for _, m := range e.acc[sw].outReq[w] {
			t := e.Route[m.target]
			if t < 0 {
				continue
			}
			k := idx[m.target]
			idx[m.target] = k + 1
			rq := req{from: m.from, j: m.j}
			switch e.inj.CopiesAt(e.Round, uint64(m.from)+1, uint64(m.target)+1, int(k)) {
			case 0:
				a.faultDrops++
			case 1:
				e.reqs[t] = append(e.reqs[t], rq)
			default:
				a.faultDups++
				e.reqs[t] = append(e.reqs[t], rq, rq)
			}
		}
	}
	for x := lo; x < hi; x++ {
		idx[x] = 0
	}
	for sw := range e.acc {
		for _, m := range e.acc[sw].outResp[w] {
			t := e.Route[m.target]
			if t < 0 {
				continue
			}
			k := idx[m.target]
			idx[m.target] = k + 1
			rp := resp{v: m.v, j: m.j}
			switch e.inj.CopiesAt(e.Round, uint64(m.v)+e.spec.RespOffset+1, uint64(m.target)+1, int(k)) {
			case 0:
				a.faultDrops++
			case 1:
				e.resps[t] = append(e.resps[t], rp)
			default:
				a.faultDups++
				e.resps[t] = append(e.resps[t], rp, rp)
			}
		}
	}
}
