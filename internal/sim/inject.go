package sim

// Injector is a deterministic fault-injection hook between the send and
// deliver halves of a round. When attached, the send step consults it
// once per otherwise-deliverable message (receiver alive and non-blocked
// per the paper's DoS rule); the return value is the number of copies to
// append to the receiver's inbox: 0 drops the message in transit, 1 is
// normal delivery, c > 1 delivers c consecutive copies.
//
// Implementations MUST be pure functions of their arguments (and any
// fixed configuration such as a seed): under sharded execution the same
// message may be evaluated by more than one worker — the delivering
// worker and the accounting worker — and both must reach the same
// decision for results to stay byte-identical across shard counts.
// Sequential RNG streams are therefore unusable here; hash the
// (round, from, to, seq) tuple instead (internal/fault does exactly
// that).
//
// A nil injector is the fast path: the send loop performs a single
// pointer check per message and otherwise runs the pre-fault code.
type Injector interface {
	Deliveries(round int, from, to NodeID, seq uint64) int
}

// FaultObserver is an optional extension a Tracer can implement to be
// told about injected duplications (drops are reported through the
// ordinary MessageDropped hook with reason DropFaultInjected). copies is
// the total number delivered, so copies-1 extra messages entered the
// receiver's inbox beyond the one counted in RoundWork.Messages.
type FaultObserver interface {
	MessageDuplicated(round int, from, to NodeID, bits, copies int)
}

// dupEvent is a deferred FaultObserver.MessageDuplicated call. Like
// dropEvent it is buffered per worker and replayed by the driver after
// the send step, so the tracer call sequence is identical for every
// shard count.
type dupEvent struct {
	from, to NodeID
	bits     int
	copies   int
}

// SetInjector attaches (or, with nil, detaches) a fault Injector. Like
// the other network methods it must be called from the driver goroutine
// between rounds.
func (n *Network) SetInjector(inj Injector) { n.injector = inj }
