package groupsim

import (
	"testing"

	"overlaynet/internal/sim"
)

// handBuilt returns an engine over n nodes whose committed history is
// the given epochs (groups and adjacency per epoch, oldest first), with
// node views and blocked nodes set by the caller afterwards.
func handBuilt(n int, epochs ...epoch) *Engine {
	e := New(Spec{Name: "hand", Shards: 1}, nil)
	e.Grow(n)
	for i, ep := range epochs {
		e.Groups = ep.groups
		for v := range e.NodeGroup {
			e.NodeGroup[v] = -1
		}
		e.IndexGroups()
		if i == 0 {
			e.Record(ep.adj)
		} else {
			e.NextEpoch(ep.adj)
		}
	}
	e.blockedHist[0] = sim.GrowBitset(nil, n)
	return e
}

// epoch is one committed epoch of a hand-built history.
type epoch struct {
	groups [][]sim.NodeID
	adj    [][]int32
}

// TestCheckerEmptyGroupIsNoHub is the negative control for the virtual
// vertex rule: nodes 1 and 2 both know group 2, whose only member,
// node 3, is blocked. No alive node links them, so the overlay is
// disconnected; a checker that joins every viewer of a group to the
// group's vertex, alive member or not, reports it connected.
func TestCheckerEmptyGroupIsNoHub(t *testing.T) {
	e := handBuilt(3, epoch{
		groups: [][]sim.NodeID{{1}, {2}, {3}},
		adj:    [][]int32{{2}, {2}, {0, 1}},
	})
	defer e.Close()
	if !e.ConnectedNow() {
		t.Fatal("path 1-3-2 with every node alive reported disconnected")
	}
	e.blockedHist[0].Set(2) // block node 3
	if e.ConnectedNow() {
		t.Fatal("nodes 1 and 2 share only a group with no alive member, yet reported connected")
	}
	if e.OracleConnected() {
		t.Fatal("oracle disagrees with the hand-built expectation")
	}
}

// TestCheckerUnviewedGroupIsNoHub is the mirror control: nodes 1 and 2
// were group mates in epoch 0, but both have moved on to epoch 1,
// where they sit in separate, non-adjacent groups. Only the blocked
// node 3 still views epoch 0, so nothing alive links 1 and 2; a
// checker that joins a group's alive members without an alive viewer
// reports them connected.
func TestCheckerUnviewedGroupIsNoHub(t *testing.T) {
	e := handBuilt(3,
		epoch{groups: [][]sim.NodeID{{1, 2, 3}}, adj: [][]int32{{}}},
		epoch{groups: [][]sim.NodeID{{1}, {2}, {3}}, adj: [][]int32{{}, {}, {}}},
	)
	defer e.Close()
	e.ViewEpoch[0], e.ViewEpoch[1], e.ViewEpoch[2] = 1, 1, 0
	e.blockedHist[0].Set(2)
	if e.histLen != 2 {
		t.Fatalf("history holds %d epochs, want both", e.histLen)
	}
	if e.ConnectedNow() {
		t.Fatal("nodes 1 and 2 are linked only through blocked node 3's stale view, yet reported connected")
	}
	if e.OracleConnected() {
		t.Fatal("oracle disagrees with the hand-built expectation")
	}
	if got := len(e.KnowledgeComponents()); got != 1 {
		t.Fatalf("with node 3 counted, the overlay has %d components, want 1", got)
	}
}
