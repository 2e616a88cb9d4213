package groupsim

import "slices"

// The knowledge checker. A committed member knows the groups of the
// epoch it last received (its view): its own group and the groups
// adjacent to it. Member v is linked to member u when one of them
// knows a group the other belongs to, in the epoch of that view — the
// clique and bipartite edges of the knowledge-based overlay. While a
// partition window is open, links between components are down.
//
// Instead of materializing that graph, the checker unions over its
// quotient by virtual vertices: one per (retained epoch, group,
// partition component), with a single component when no window is
// open. An alive viewer of vertex (ep, y, c) — an alive member of
// component c whose view is epoch ep and names group y — is linked to
// every alive member of component c that group y had in epoch ep, and
// to nothing else through that vertex. So a vertex joins its viewers
// and members only when it has at least one of each: with no alive
// member an empty group would act as a hub between viewers that share
// no link, and with no alive viewer it would link members that only
// happen to have shared a group. The vertex is represented by its
// first alive member, so the forest is over node slots alone.

// ufScratch is the checker's reusable state; its arrays only grow.
type ufScratch struct {
	parent []int32 // union-find forest over node slots (members only)
	comp   []int32 // partition component per member slot, while a window is open
	cut    bool    // a partition window is open this round
	k      int     // components per group: PartK while cut, else 1

	vBase    []int   // first virtual vertex of each retained epoch
	epViewed []bool  // some alive viewer's view is this retained epoch
	viewed   []bool  // per virtual vertex: has an alive viewer
	rep      []int32 // per virtual vertex: first alive member slot, −1 none
}

func (u *ufScratch) find(x int32) int32 {
	p := u.parent
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

func (u *ufScratch) union(a, b int32) {
	a, b = u.find(a), u.find(b)
	if a < b {
		u.parent[b] = a
	} else if b < a {
		u.parent[a] = b
	}
}

// compOf returns member slot v's partition component (0 with no window).
func (u *ufScratch) compOf(v int32) int {
	if !u.cut {
		return 0
	}
	return int(u.comp[v])
}

// ConnectedNow reports whether the non-blocked committed members form a
// connected graph under each member's current (possibly stale)
// knowledge. While a partition window is open, cross-component
// knowledge edges are treated as down — no message can traverse them,
// so they cannot carry the overlay. It runs in O(Σ view degree + Σ
// retained group sizes) and allocates nothing in steady state.
func (e *Engine) ConnectedNow() bool {
	e.knowledgeUnion(false)
	root := int32(-1)
	for _, v := range e.members {
		if !e.alive(v, false) {
			continue
		}
		if r := e.uf.find(v); root < 0 {
			root = r
		} else if r != root {
			return false
		}
	}
	return true
}

// KnowledgeComponents returns the connected components of the graph
// ConnectedNow tests (including any open partition cut) with every
// committed member counted, largest first (ties: lowest first member),
// as indices of committed members in slot order.
func (e *Engine) KnowledgeComponents() [][]int {
	e.knowledgeUnion(true)
	var comps [][]int
	at := make(map[int32]int)
	m := 0
	for _, v := range e.members {
		if e.NodeGroup[v] < 0 {
			continue
		}
		r := e.uf.find(v)
		c, ok := at[r]
		if !ok {
			c = len(comps)
			at[r] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], m)
		m++
	}
	slices.SortStableFunc(comps, func(a, b []int) int { return len(b) - len(a) })
	return comps
}

// alive reports whether member slot v counts for the checker: committed
// and, unless all, not blocked this round.
func (e *Engine) alive(v int32, all bool) bool {
	return e.NodeGroup[v] >= 0 && (all || !e.blockedHist[0].Test(v))
}

// view returns the retained-epoch index (epoch − histBase) of member
// slot v's knowledge — the epoch it last received, clamped to the
// retained window — and its group there, −1 when that epoch did not
// commit it.
func (e *Engine) view(v int32) (int, int32) {
	ep := min(max(int(e.ViewEpoch[v]), e.histBase), e.Epoch)
	h := e.histAt(ep)
	if int(v) >= len(h.nodeGroup) {
		return 0, -1
	}
	return ep - e.histBase, h.nodeGroup[v]
}

// knowledgeUnion leaves in e.uf the components of the knowledge graph
// over the alive members (every committed member when all is set).
func (e *Engine) knowledgeUnion(all bool) {
	u := &e.uf
	u.cut = e.faults.Partitioned(e.Round)
	u.k = 1
	if u.cut {
		u.k = e.faults.PartK
	}
	u.parent = resize(u.parent, len(e.NodeGroup))
	if u.cut {
		u.comp = resize(u.comp, len(e.NodeGroup))
	}
	for _, v := range e.members {
		u.parent[v] = v
		if u.cut {
			u.comp[v] = int32(e.faults.Component(uint64(e.ID(int(v)))))
		}
	}
	u.vBase = resize(u.vBase, e.histLen)
	u.epViewed = resize(u.epViewed, e.histLen)
	nv := 0
	for i := 0; i < e.histLen; i++ {
		u.vBase[i] = nv
		u.epViewed[i] = false
		nv += len(e.histAt(e.histBase+i).groups) * u.k
	}
	u.viewed = resize(u.viewed, nv)
	clear(u.viewed)
	u.rep = resize(u.rep, nv)
	for i := range u.rep {
		u.rep[i] = -1
	}

	e.viewPass(all, false)
	for i := 0; i < e.histLen; i++ {
		if !u.epViewed[i] {
			continue
		}
		for y, g := range e.histAt(e.histBase + i).groups {
			base := u.vBase[i] + y*u.k
			if !slices.Contains(u.viewed[base:base+u.k], true) {
				continue
			}
			for _, id := range g {
				s := int32(e.Slot(id))
				if s < 0 || !e.alive(s, all) {
					continue
				}
				w := base + u.compOf(s)
				if !u.viewed[w] {
					continue
				}
				if r := u.rep[w]; r < 0 {
					u.rep[w] = s
				} else {
					u.union(s, r)
				}
			}
		}
	}
	e.viewPass(all, true)
}

// viewPass visits every alive member's view vertices: its own group,
// then each adjacent group, in the epoch and component of its view.
// The first pass marks them viewed; the joining pass links the member
// to each one's representative, if the vertex has an alive member.
func (e *Engine) viewPass(all, join bool) {
	u := &e.uf
	for _, v := range e.members {
		if !e.alive(v, all) {
			continue
		}
		i, x := e.view(v)
		if x < 0 {
			continue
		}
		u.epViewed[i] = true
		adj := e.histAt(e.histBase + i).adj[x]
		base := u.vBase[i] + u.compOf(v)
		for j := -1; j < len(adj); j++ {
			y := x
			if j >= 0 {
				y = adj[j]
			}
			w := base + int(y)*u.k
			if !join {
				u.viewed[w] = true
			} else if r := u.rep[w]; r >= 0 {
				u.union(v, r)
			}
		}
	}
}
