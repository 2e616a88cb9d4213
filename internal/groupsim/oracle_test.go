package groupsim

import "overlaynet/internal/graph"

// knowledgeGraph is the reference the union-find checker is tested
// against: it materializes the knowledge-based overlay over the
// committed members, indexed densely in slot order. Each member
// contributes the clique and bipartite edges of the epoch it last
// received, minus any edge a currently open partition window severs;
// edges are deduplicated through a map, as the checker did before it
// became a union-find. It also returns which members are non-blocked
// this round.
func (e *Engine) knowledgeGraph() (*graph.Graph, []bool) {
	idx := make([]int32, len(e.NodeGroup))
	m := 0
	for v, x := range e.NodeGroup {
		idx[v] = -1
		if x >= 0 {
			idx[v] = int32(m)
			m++
		}
	}
	alive := make([]bool, m)
	var comp []int // partition component per member, only while a window is open
	if e.faults.Partitioned(e.Round) {
		comp = make([]int, m)
	}
	for v, i := range idx {
		if i >= 0 {
			alive[i] = !e.blockedHist[0].Test(int32(v))
			if comp != nil {
				comp[i] = e.faults.Component(uint64(e.ID(v)))
			}
		}
	}
	g := graph.New(m)
	seen := make(map[int64]bool)
	addEdge := func(a, b int) {
		if a == b || (comp != nil && comp[a] != comp[b]) {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := int64(a)<<32 | int64(b)
		if !seen[key] {
			seen[key] = true
			g.AddEdge(a, b)
		}
	}
	for v, i := range idx {
		if i < 0 {
			continue
		}
		ep := min(max(int(e.ViewEpoch[v]), e.histBase), e.Epoch)
		h := e.histAt(ep)
		if v >= len(h.nodeGroup) || h.nodeGroup[v] < 0 {
			continue
		}
		x := h.nodeGroup[v]
		for k := -1; k < len(h.adj[x]); k++ { // own group, then each neighbor
			y := x
			if k >= 0 {
				y = h.adj[x][k]
			}
			for _, u := range h.groups[y] {
				if s := e.Slot(u); s >= 0 && idx[s] >= 0 { // a retired id is not committed
					addEdge(int(i), int(idx[s]))
				}
			}
		}
	}
	return g, alive
}
