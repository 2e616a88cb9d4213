package groupsim

// Sharded execution of the round pipeline. Every per-group, per-label
// and per-node loop of Step is partitioned into contiguous index ranges
// (sim.Chunk) driven through a persistent sim.Pool. The determinism
// contract mirrors the kernel's shard workers:
//
//   - compute phases: worker w owns the groups [Chunk(len(Groups), S, w))
//     and therefore their vertices — a group's vertices share the
//     leader's RNG, so they stay on one worker, in vertex order; all
//     messages it generates go into per-worker, per-target-shard
//     outboxes in generation order, which is the serial order because
//     the group ranges are contiguous;
//   - deliver phases: worker w owns the target labels of its range and
//     drains the outboxes of source workers 0..S-1 in worker order,
//     which reproduces the serial per-target queue order and the serial
//     fault-injection index for every message;
//   - counters accumulate into per-worker Acc cells (cache-line padded)
//     and merge into Counters in worker order after the round.
//
// The result is byte-identical to the serial execution at any shard
// count: identical RNG consumption, identical queue contents,
// identical fault-injection tuples, identical counter totals.

import "overlaynet/internal/sim"

// Phase identifiers dispatched through RunShard.
const (
	phaseLeaders = iota
	phaseSimCompute
	phaseSimDeliver
	phaseAssign
	phaseAssignDeliver
	phaseBroadcast
)

// req and resp are a vertex's queued sampling request and response.
type req struct {
	from uint32 // requesting vertex label
	j    int16
}

type resp struct {
	v uint32 // walk endpoint label
	j int16
}

// wireReq is a request in flight to a target label's queue.
type wireReq struct {
	target uint32
	from   uint32
	j      int16
}

// wireResp is a response in flight; v is the sampled payload (the
// fault-injection tuple derives its sender id from v, offset by
// Spec.RespOffset).
type wireResp struct {
	target uint32
	v      uint32
	j      int16
}

// asgEntry routes one node id to its new group.
type asgEntry struct {
	target int32
	id     sim.NodeID
}

// Acc is one worker's round-local state: bucketed outboxes indexed by
// target shard, counter deltas, and scratch. Padded so adjacent workers
// never share a cache line.
type Acc struct {
	outReq     [][]wireReq
	outResp    [][]wireResp
	outAsg     [][]asgEntry
	groupShard []uint8
	avail      []int32 // RandomLeader scratch

	// IDs and Labels are scratch a Topology may reuse inside Assign.
	IDs    []sim.NodeID
	Labels []uint32
	// AssignFails counts members Assign could not give a sample.
	AssignFails int

	stalls      int
	sampleFails int
	emptyGroups int
	faultDrops  int
	faultDups   int
	msgs        int64 // group-level messages drained this round

	_ [64]byte
}

// Route sends node id to group target in the reorganization.
func (a *Acc) Route(target int32, id sim.NodeID) {
	ts := a.groupShard[target]
	a.outAsg[ts] = append(a.outAsg[ts], asgEntry{target: target, id: id})
}

// reset truncates the outboxes and zeroes the counter deltas, keeping
// every backing array. Called by each worker on its own cell at the
// start of a round (phaseLeaders), so steady-state rounds allocate
// nothing.
func (a *Acc) reset() {
	for i := range a.outReq {
		a.outReq[i] = a.outReq[i][:0]
		a.outResp[i] = a.outResp[i][:0]
		a.outAsg[i] = a.outAsg[i][:0]
	}
	a.AssignFails = 0
	a.stalls = 0
	a.sampleFails = 0
	a.emptyGroups = 0
	a.faultDrops = 0
	a.faultDups = 0
	a.msgs = 0
}

// RunShard dispatches one worker's share of a phase. It satisfies
// sim.ShardRunner and is not meant to be called by package users.
func (e *Engine) RunShard(phase, w int) {
	switch phase {
	case phaseLeaders:
		e.leadersRange(w)
	case phaseSimCompute:
		e.simComputeRange(w)
	case phaseSimDeliver:
		e.simDeliverRange(w)
	case phaseAssign:
		e.assignRange(w)
	case phaseAssignDeliver:
		e.assignDeliverRange(w)
	case phaseBroadcast:
		e.broadcastRange(w)
	}
}

// mergeCounters folds every worker's counter deltas into Counters and
// returns the round's stall count.
func (e *Engine) mergeCounters() int {
	stalls := 0
	for w := range e.acc {
		a := &e.acc[w]
		stalls += a.stalls
		e.C.Stalls += a.stalls
		e.C.SampleFails += a.sampleFails
		e.C.AssignFails += a.AssignFails
		e.C.EmptyGroups += a.emptyGroups
		e.C.FaultDrops += a.faultDrops
		e.C.FaultDups += a.faultDups
		e.C.Messages += a.msgs
	}
	return stalls
}
