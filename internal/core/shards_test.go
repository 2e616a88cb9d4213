package core

import (
	"fmt"
	"sort"
	"testing"
)

// epochTranscript runs a fixed churn schedule through a Network at the
// given shard count and serializes everything observable: each epoch's
// report and final-id list, plus the membership and per-member
// neighborhoods after every epoch.
func epochTranscript(shards int) string {
	nw := NewNetwork(Config{Seed: 42, N0: 24, D: 6, Shards: shards})
	defer nw.Shutdown()
	out := ""
	schedule := []struct {
		joins  int
		leaves []int
	}{
		{joins: 3, leaves: nil},
		{joins: 0, leaves: []int{2, 7}},
		{joins: 2, leaves: []int{0, 25}},
		{joins: 1, leaves: []int{11}},
	}
	for e, step := range schedule {
		members := nw.Members()
		joins := make([]JoinSpec, step.joins)
		for j := range joins {
			joins[j] = JoinSpec{Sponsor: members[(e*5+j*3)%len(members)]}
		}
		rep, ids := nw.RunEpoch(joins, step.leaves)
		out += fmt.Sprintf("epoch %d: report=%+v new-ids=%v\n", e, rep, ids)
		ms := append([]int(nil), nw.Members()...)
		sort.Ints(ms)
		out += fmt.Sprintf("members=%v\n", ms)
		for _, m := range ms {
			out += fmt.Sprintf("  %d -> %v\n", m, nw.NeighborsOf(m))
		}
	}
	return out
}

// TestEpochTranscriptShardIdentity: the §4 protocol's epoch reports,
// joiner ids, membership and topology are identical at any shard count.
func TestEpochTranscriptShardIdentity(t *testing.T) {
	if base, got := epochTranscript(1), epochTranscript(4); got != base {
		t.Errorf("shards=4 transcript diverges from shards=1:\n--- base\n%s--- got\n%s", base, got)
	}
}
