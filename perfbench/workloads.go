package main

import (
	"slices"
	"strconv"

	"overlaynet/internal/churn"
	"overlaynet/internal/core"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
	"overlaynet/internal/splitmerge"
	"overlaynet/internal/supernode"
)

// workload is one simulated system driven in a closed loop.
type workload interface {
	// setup returns the constructions block b needs, in the order of
	// its phases, or none when the block reuses what an earlier one
	// built. measure runs the first before the block's first operation
	// and each later one when an operation ends a phase, after that
	// phase's network is released, so one phase's network is held at a
	// time; it times them all as the block's set-up.
	setup(b int) []func()
	// blockOps is the number of operations in a block (valid after setup(0)).
	blockOps() int
	// op runs operation i.
	op(i int, c *opCtx)
	// nodes is the number of simulated nodes held now.
	nodes() int
	close()
}

type workloadSpec struct {
	name  string
	sizes map[string]string
	build func(cfg config) workload
	// traceAfter, if set, runs in a traced run after the timed part
	// and its totals, to record spans that belong to no operation.
	traceAfter func(cfg config, tr *tracer)
}

var workloads = []*workloadSpec{
	{
		name: "overlay-dos",
		sizes: map[string]string{
			"supernode_n": itoa(dosN), "supernode_blocked": ftoa(dosSupFraction),
			"splitmerge_n0": itoa(dosN), "splitmerge_blocked": ftoa(dosSMFraction),
			"splitmerge_churn_per_epoch": ftoa(dosChurn), "lateness": "2*EpochRounds",
			"block_ops": itoa(dosBlockOps),
		},
		build: func(cfg config) workload { return &overlayDoS{cfg: cfg} },
	},
	{
		name: "scale",
		sizes: map[string]string{
			"n": itoa(scaleN), "flood_fanout": itoa(scaleFanout), "flood_rounds": itoa(scaleFloodRounds),
			"supernode_epochs": "1", "splitmerge_epochs": "1", "block_ops": itoa(scaleFloodRounds + 2),
		},
		build:      func(cfg config) workload { return &scale{cfg: cfg} },
		traceAfter: floodShards2,
	},
	{
		name:  "reconfig-sync",
		sizes: newReconfig(config{}, false).sizes(),
		build: func(cfg config) workload { return newReconfig(cfg, false) },
	},
	{
		name:  "reconfig-reliable",
		sizes: newReconfig(config{}, true).sizes(),
		build: func(cfg config) workload { return newReconfig(cfg, true) },
	},
}

func itoa(v int) string { return strconv.Itoa(v) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func lookup(name string) (*workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, s := range workloads {
		names[i] = s.name
	}
	return names
}

// seedFor derives an independent seed for one input from the workload
// seed and a tag path (splitmix64 finalizer over each step).
func seedFor(seed uint64, tags ...uint64) uint64 {
	x := seed
	for _, t := range tags {
		x ^= t + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// bitsPerSupernodeMsg prices a §5/§6 supernode-level message at 8
// bytes, the accounting experiment S3 uses for its bytes/node-round.
const bitsPerSupernodeMsg = 64

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// lateView is the adversary's dos.Buffer, rebuilt from the last
// lateness+1 snapshots whenever it has grown to twice that, so the
// buffer's memory does not grow with the run length. Those snapshots
// hold every one a lateness-L view can still return.
type lateView struct {
	lateness int
	buf      *dos.Buffer
	recent   []*dos.Snapshot
}

func newLateView(lateness int) *lateView {
	return &lateView{lateness: lateness, buf: &dos.Buffer{Lateness: lateness}}
}

func (v *lateView) publish(s *dos.Snapshot) {
	v.buf.Publish(s)
	v.recent = append(v.recent, s)
	if keep := v.lateness + 1; len(v.recent) >= 2*keep {
		v.recent = slices.Clone(v.recent[len(v.recent)-keep:])
		v.buf = &dos.Buffer{Lateness: v.lateness}
		for _, s := range v.recent {
			v.buf.Publish(s)
		}
	}
}

// overlayDoS: §5 and §6 under a late group-isolate adversary, the
// connectivity checker run after every round. One operation is one round
// of each stack.
type overlayDoS struct {
	cfg config

	sup     *supernode.Network
	supAdv  *dos.GroupIsolate
	supView *lateView

	sm         *splitmerge.Network
	smAdv      *dos.GroupIsolate
	smView     *lateView
	churnR     *rng.RNG
	churnEpoch int
}

const (
	dosN           = 1024
	dosSupFraction = 0.4
	dosSMFraction  = 0.3
	dosChurn       = 0.125
	dosBlockOps    = 120
)

func (w *overlayDoS) setup(b int) []func() {
	if b > 0 {
		return nil
	}
	return []func(){w.build}
}

func (w *overlayDoS) build() {
	s := w.cfg.seed
	w.sup = supernode.New(supernode.Config{Seed: seedFor(s, 5), N: dosN, MeasureEvery: -1, Shards: w.cfg.shards})
	w.supAdv = &dos.GroupIsolate{Fraction: dosSupFraction, R: rng.New(seedFor(s, 5, 1))}
	w.supView = newLateView(2 * w.sup.EpochRounds())
	w.sm = splitmerge.New(splitmerge.Config{Seed: seedFor(s, 6), N0: dosN, MeasureEvery: -1, Shards: w.cfg.shards})
	w.smAdv = &dos.GroupIsolate{Fraction: dosSMFraction, R: rng.New(seedFor(s, 6, 1))}
	w.smView = newLateView(2 * w.sm.EpochRounds())
	w.churnR = rng.New(seedFor(s, 6, 2))
	w.churnEpoch = -1
}

func (w *overlayDoS) blockOps() int { return dosBlockOps }

func (w *overlayDoS) nodes() int { return dosN + w.sm.N() }

func (w *overlayDoS) close() {
	if w.sup != nil {
		w.sup.Close()
		w.sm.Close()
		w.sup, w.sm = nil, nil
	}
}

func (w *overlayDoS) op(i int, c *opCtx) {
	// §5: publish, let the late adversary choose, step, check.
	st0 := w.sup.StatsSnapshot()
	m := c.begin()
	snap := w.sup.Snapshot()
	c.end("supernode.snapshot", m)
	w.supView.publish(snap)
	next := w.sup.Round() + 1
	m = c.begin()
	blocked := w.supAdv.SelectBlocked(next, dosN, w.supView.buf.View(next))
	c.end("dos.select", m)
	m = c.begin()
	rep := w.sup.Step(blocked)
	c.end("supernode.step", m)
	m = c.begin()
	conn := w.sup.ConnectedNow()
	c.end("supernode.connected", m)
	c.check("supernode connected (Theorem 6)", conn)
	st := w.sup.StatsSnapshot()
	c.hash(int64(rep.Round), int64(rep.Epoch), int64(rep.Blocked), int64(rep.Stalls), rep.MaxNodeBits, b2i(conn), st.Messages)
	c.nodeRounds += dosN
	c.bits += (st.Messages - st0.Messages) * bitsPerSupernodeMsg
	c.bitNodeRounds += dosN
	c.count("supernode.rounds", 1)
	c.count("supernode.msgs", float64(st.Messages-st0.Messages))
	c.count("supernode.stalls", float64(st.Stalls-st0.Stalls))

	// §6: churn at each epoch start, then the same round.
	if e := w.sm.Epoch(); e != w.churnEpoch {
		w.churnEpoch = e
		m = c.begin()
		joined := w.churn()
		c.end("splitmerge.churn", m)
		c.hash(joined...)
	}
	n := w.sm.N()
	s0 := w.sm.StatsSnapshot()
	m = c.begin()
	snap = w.sm.Snapshot()
	c.end("splitmerge.snapshot", m)
	w.smView.publish(snap)
	next = w.sm.Round() + 1
	m = c.begin()
	blocked = w.smAdv.SelectBlocked(next, n, w.smView.buf.View(next))
	c.end("dos.select", m)
	m = c.begin()
	srep := w.sm.Step(blocked)
	c.end("splitmerge.step", m)
	m = c.begin()
	conn = w.sm.ConnectedNow()
	c.end("splitmerge.connected", m)
	c.check("splitmerge connected (Theorem 7)", conn)
	s1 := w.sm.StatsSnapshot()
	if w.sm.Epoch() != srep.Epoch {
		c.check("splitmerge Eq1Holds (Lemma 18)", w.sm.Eq1Holds() && s1.Eq1Violations == s0.Eq1Violations)
	}
	c.hash(int64(srep.Round), int64(srep.Epoch), int64(srep.Blocked), int64(srep.Stalls), b2i(conn),
		int64(w.sm.N()), int64(w.sm.NumSupers()), s1.Messages)
	c.nodeRounds += int64(n)
	c.bits += (s1.Messages - s0.Messages) * bitsPerSupernodeMsg
	c.bitNodeRounds += int64(n)
	c.count("splitmerge.splits_merges", float64(s1.Splits+s1.Merges+s1.ForcedMerges-s0.Splits-s0.Merges-s0.ForcedMerges))
	c.count("splitmerge.rounds", 1)
	c.phaseEnd = i%dosBlockOps == dosBlockOps-1
}

// churn makes dosChurn of the members leave and as many join through
// random staying sponsors, as experiment E10 does; it returns the
// joiners' ids.
func (w *overlayDoS) churn() []int64 {
	members := w.sm.Members()
	k := int(dosChurn * float64(len(members)))
	gone := make(map[sim.NodeID]bool, k)
	for len(gone) < k {
		id := members[w.churnR.Intn(len(members))]
		if !gone[id] {
			gone[id] = true
			w.sm.Leave(id)
		}
	}
	joined := make([]int64, 0, k)
	for len(joined) < k {
		if s := members[w.churnR.Intn(len(members))]; !gone[s] {
			joined = append(joined, int64(w.sm.Join(s)))
		}
	}
	return joined
}

// scale: one block is an S2-style flood on the kernel, then one full §5
// epoch, then one full §6 epoch, each on a fresh n = 100k network built
// when its phase starts. An operation is one flood round or one whole
// epoch: the per-round cost of a §5/§6 epoch falls geometrically with
// the sampling budget, so a median over its rounds would sit between
// two of them. Only one network is held at a time: each is released,
// outside the operations, when its phase ends, before the next is built.
type scale struct {
	cfg config

	flood    *sim.Network
	recv     []int32 // per-node messages delivered, summed over the rounds
	sent     int64   // protocol messages sent in earlier rounds
	sup      *supernode.Network
	sm       *splitmerge.Network
	supSteps int
	smSteps  int
}

const (
	scaleN           = 100000
	scaleFanout      = 4
	scaleFloodRounds = 16
)

func (w *scale) setup(b int) []func() {
	s := seedFor(w.cfg.seed, uint64(b))
	return []func(){
		func() {
			w.flood, w.recv = newFlood(seedFor(s, 1), w.cfg.shards)
			w.sent = 0
		},
		func() {
			w.sup = supernode.New(supernode.Config{Seed: seedFor(s, 5), N: scaleN, MeasureEvery: -1, Shards: w.cfg.shards})
			w.supSteps = w.sup.EpochRounds()
		},
		func() {
			w.sm = splitmerge.New(splitmerge.Config{Seed: seedFor(s, 6), N0: scaleN, MeasureEvery: -1, Shards: w.cfg.shards})
			w.smSteps = w.sm.EpochRounds()
		},
	}
}

// newFlood builds the kernel flood network: every node sends fanout
// messages of IDBits(n) bits to uniformly random nodes each round, and
// counts what it is delivered into recv.
func newFlood(seed uint64, shards int) (net *sim.Network, recv []int32) {
	net = sim.NewNetwork(sim.Config{Seed: seed, Shards: shards, SizeHint: scaleN})
	recv = make([]int32, scaleN)
	bits := sim.IDBits(scaleN)
	h := sim.HandlerFunc(func(ctx *sim.Ctx, inbox []sim.Message) bool {
		recv[ctx.ID()-1] += int32(len(inbox))
		r := ctx.RNG()
		for j := 0; j < scaleFanout; j++ {
			ctx.Send(sim.NodeID(r.Intn(scaleN)+1), nil, bits)
		}
		return true
	})
	for v := 0; v < scaleN; v++ {
		net.SpawnHandler(sim.NodeID(v+1), h)
	}
	return net, recv
}

func (w *scale) release() {
	if w.flood != nil {
		w.flood.Shutdown()
		w.flood = nil
	}
	if w.sup != nil {
		w.sup.Close()
		w.sup = nil
	}
	if w.sm != nil {
		w.sm.Close()
		w.sm = nil
	}
}

func (w *scale) blockOps() int { return scaleFloodRounds + 2 }

func (w *scale) nodes() int { return scaleN }

func (w *scale) close() { w.release() }

func (w *scale) op(i int, c *opCtx) {
	switch j := i % w.blockOps(); {
	case j < scaleFloodRounds:
		w.floodRound(c, j == scaleFloodRounds-1)
	case j == scaleFloodRounds:
		w.supEpoch(c)
	default:
		w.smEpoch(c)
	}
}

func (w *scale) floodRound(c *opCtx, last bool) {
	m := c.begin()
	w.flood.Step()
	c.end("sim.step", m)
	work := w.flood.Work()
	rw := work[len(work)-1]
	var delivered int64
	for _, r := range w.recv {
		delivered += int64(r)
	}
	// Every node is alive and unblocked, so nothing is dropped: every
	// message sent in the earlier rounds has been delivered, and every
	// node sent fanout messages.
	const dropped = 0
	c.check("flood sent = delivered + dropped", delivered+dropped == w.sent)
	c.check("flood sends fanout per node", rw.Messages == scaleFanout*scaleN)
	w.sent += int64(rw.Messages)
	c.hash(int64(rw.Round), int64(rw.Messages), rw.TotalBits, rw.MaxNodeBits, delivered)
	c.nodeRounds += scaleN
	c.bits += rw.TotalBits
	c.bitNodeRounds += scaleN
	c.count("sim.steps", 1)
	c.count("sim.msgs", float64(rw.Messages))
	if last {
		c.phaseEnd, c.flood = true, true
		c.release = func() {
			w.flood.Shutdown()
			w.flood, w.recv = nil, nil
		}
	}
}

// floodShards2 runs the scale flood on a fresh network at two shards,
// traced as sim.step_shards2. It runs after the timed part, outside the
// go.* totals, and is recorded only: no operation, no check, no digest.
func floodShards2(cfg config, tr *tracer) {
	net, _ := newFlood(seedFor(cfg.seed, 2), 2)
	defer net.Shutdown()
	for r := 0; r < scaleFloodRounds; r++ {
		m := tr.begin()
		net.Step()
		tr.end("sim.step_shards2", m)
	}
}

// supEpoch runs the fresh §5 network through one full epoch.
func (w *scale) supEpoch(c *opCtx) {
	s0 := w.sup.StatsSnapshot()
	for r := 0; r < w.supSteps; r++ {
		m := c.begin()
		rep := w.sup.Step(nil)
		c.end("supernode.step", m)
		c.check("supernode round without stall", rep.Blocked == 0 && rep.Stalls == 0)
		c.hash(int64(rep.Round), int64(rep.Epoch), rep.MaxNodeBits)
	}
	s1 := w.sup.StatsSnapshot()
	// The epoch's groups are rebuilt from the sampled primitive without
	// underflow, over-budget members, or empty groups.
	c.check("supernode epoch rebuilt cleanly", w.sup.Epoch() == 1 && s1.SampleFails == 0 && s1.AssignFails == 0 && s1.EmptyGroups == 0)
	c.hash(s1.Messages)
	nr := int64(w.supSteps) * scaleN
	c.nodeRounds += nr
	c.bits += (s1.Messages - s0.Messages) * bitsPerSupernodeMsg
	c.bitNodeRounds += nr
	c.count("supernode.rounds", float64(w.supSteps))
	c.count("supernode.msgs", float64(s1.Messages-s0.Messages))
	c.count("supernode.stalls", float64(s1.Stalls-s0.Stalls))
	c.phaseEnd = true
	c.release = func() {
		w.sup.Close()
		w.sup = nil
	}
}

// smEpoch runs the fresh §6 network through one full epoch.
func (w *scale) smEpoch(c *opCtx) {
	s0 := w.sm.StatsSnapshot()
	var nr int64
	for r := 0; r < w.smSteps; r++ {
		n := w.sm.N()
		m := c.begin()
		rep := w.sm.Step(nil)
		c.end("splitmerge.step", m)
		c.check("splitmerge round without stall", rep.Blocked == 0 && rep.Stalls == 0)
		c.hash(int64(rep.Round), int64(rep.Epoch), int64(w.sm.N()), int64(w.sm.NumSupers()))
		nr += int64(n)
	}
	s1 := w.sm.StatsSnapshot()
	c.check("splitmerge epoch rebuilt cleanly", w.sm.Epoch() == 1 && w.sm.Eq1Holds() && s1.Eq1Violations == 0 && s1.SampleFails == 0 && s1.AssignFails == 0)
	c.hash(s1.Messages)
	c.nodeRounds += nr
	c.bits += (s1.Messages - s0.Messages) * bitsPerSupernodeMsg
	c.bitNodeRounds += nr
	c.count("splitmerge.rounds", float64(w.smSteps))
	c.count("splitmerge.splits_merges", float64(s1.Splits+s1.Merges+s1.ForcedMerges-s0.Splits-s0.Merges-s0.ForcedMerges))
	c.phaseEnd = true
	c.release = func() {
		w.sm.Close()
		w.sm = nil
	}
}

// reconfig: one operation is one §3 rapid-sampling run on a fresh
// ℍ-graph followed by one §4 reconfiguration epoch of a persistent
// network under replacement churn. The reliable variant runs both under
// the latency spread, drops and endpoint settings of AS2's restored
// cells.
type reconfig struct {
	cfg    config
	block  int
	nS, nC int
	params sampling.HGraphParams
	drop   float64

	nw     *core.Network
	churn  *churn.Replace
	epoch  int
	rel    sim.ReliabilityTotals
	defer0 int64
}

// reconfigChurn is the §4 replacement churn per epoch, as in E6 and AS2.
const reconfigChurn = 0.25

func newReconfig(cfg config, rel bool) *reconfig {
	w := &reconfig{cfg: cfg, block: 4, nS: 512, nC: 512}
	var lat sim.Latency
	var endpoint reliable.Config
	if rel {
		w.block, w.nS, w.nC, w.drop = 8, 256, 128, 0.05
		lat, endpoint = sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2.5}, reliableConfig()
	}
	// E1's and AS2's sampling parameters.
	w.params = sampling.HGraphParams{N: w.nS, D: 8, Alpha: 2, Epsilon: 1, C: 2, Shards: cfg.shards,
		Latency: lat, Reliable: endpoint}
	return w
}

// reliableConfig is AS2's endpoint on its drop cells: linear backoff, a
// budget of 7 retransmissions and a phase stretch of 32.
func reliableConfig() reliable.Config {
	cfg := reliable.On()
	cfg.Backoff, cfg.Budget, cfg.Stretch = 1, 7, 32
	return cfg
}

func (w *reconfig) setup(b int) []func() {
	if b > 0 {
		return nil
	}
	return []func(){w.build}
}

func (w *reconfig) build() {
	s := w.cfg.seed
	p := w.params
	w.nw = core.NewNetwork(core.Config{Seed: seedFor(s, 4), N0: w.nC, D: p.D, Alpha: p.Alpha, Epsilon: p.Epsilon,
		Shards: w.cfg.shards, Latency: p.Latency, Reliable: p.Reliable})
	if w.drop > 0 {
		w.nw.SetInjector(fault.Spec{Seed: seedFor(s, 4, 0xd0), Drop: w.drop}.Injector())
	}
	w.churn = &churn.Replace{Fraction: reconfigChurn, R: rng.New(seedFor(s, 4, 1))}
}

func (w *reconfig) blockOps() int { return w.block }

func (w *reconfig) sizes() map[string]string {
	p := w.params
	m := map[string]string{
		"sampling_n": itoa(w.nS), "sampling_c": ftoa(p.C), "core_n0": itoa(w.nC), "d": itoa(p.D),
		"alpha": ftoa(p.Alpha), "epsilon": ftoa(p.Epsilon), "churn_replace": ftoa(reconfigChurn),
		"block_ops": itoa(w.block),
	}
	if w.drop > 0 {
		m["latency"], m["drop"], m["reliable"] = p.Latency.String(), ftoa(w.drop), p.Reliable.String()
	}
	return m
}

func (w *reconfig) nodes() int { return w.nC }

func (w *reconfig) close() {
	if w.nw != nil {
		w.nw.Shutdown()
		w.nw = nil
	}
}

func (w *reconfig) op(i int, c *opCtx) {
	w.sample(i, c)
	w.reconfigure(c)
	c.phaseEnd = i%w.block == w.block-1
}

// sample runs §3 on a fresh ℍ-graph and checks Theorem 2's outcome:
// no extraction or delivery failure, pooled TV within 3× the uniform
// envelope.
func (w *reconfig) sample(i int, c *opCtx) {
	s := seedFor(w.cfg.seed, 3, uint64(i))
	p := w.params
	if w.drop > 0 {
		p.Faults = fault.Spec{Seed: seedFor(s, 0xd0), Drop: w.drop}
	}
	h := hgraph.Random(rng.New(seedFor(s, 1)), w.nS, p.D)
	m := c.begin()
	res := sampling.RapidHGraph(seedFor(s, 2), h, p)
	c.end("sampling.rapid", m)

	counts := make([]int, w.nS)
	total := 0
	for _, smp := range res.Samples {
		for _, v := range smp {
			counts[v]++
			total++
		}
		c.hash(int64(len(smp)))
		for _, v := range smp {
			c.hash(int64(v))
		}
	}
	tv := metrics.TVDistanceUniform(counts)
	env := 3 * metrics.ExpectedTVUniform(w.nS, total)
	c.check("sampling TV within 3x envelope", tv <= env)
	c.protocolFailures("sampling extraction", res.Failures)
	c.protocolFailures("sampling delivery", int(res.DeliveryFailures))
	c.hash(int64(res.Rounds), int64(res.Failures), res.MaxNodeBits, res.TotalBits, res.Deferred,
		res.Retransmits, res.DeliveryFailures)
	nr := int64(w.nS) * int64(res.Rounds)
	c.nodeRounds += nr
	c.bits += res.TotalBits
	c.bitNodeRounds += nr
	c.count("sampling.calls", 1)
	c.count("sampling.rounds", float64(res.Rounds))
	c.count("sampling.failures", float64(res.Failures))
	c.count("sampling.tv_over_env", tv/env)
	c.count("reliable.retransmits", float64(res.Retransmits))
	c.count("reliable.delivery_failures", float64(res.DeliveryFailures))
	c.count("sim.deferred", float64(res.Deferred))
}

// reconfigure runs one §4 epoch under replacement churn and checks
// Theorems 4/5: a valid, connected topology of Hamilton cycles and no
// protocol failure.
func (w *reconfig) reconfigure(c *opCtx) {
	view := churn.View{Epoch: w.epoch, Members: w.nw.Members(), Neighbors: w.nw.NeighborsOf}
	w.epoch++
	m := c.begin()
	joins, leaves := w.churn.Plan(view)
	c.end("churn.plan", m)
	m = c.begin()
	rep, joined := w.nw.RunEpoch(joins, leaves)
	c.end("core.epoch", m)
	m = c.begin()
	err := w.nw.ValidateTopology()
	c.end("core.validate", m)
	m = c.begin()
	conn := w.nw.BuildGraph().IsConnected()
	c.end("graph.connected", m)
	c.check("core epoch valid", rep.Valid)
	c.check("core epoch connected", rep.Connected)
	c.check("core ValidateTopology", err == nil)
	c.check("core graph connected", conn)
	c.protocolFailures("core epoch", rep.Failures)

	rel := w.nw.ReliabilityStats()
	deferred := w.nw.DeferredMessages()
	c.hash(int64(rep.Epoch), int64(rep.Rounds), int64(rep.NOld), int64(rep.NNew), b2i(rep.Valid), b2i(rep.Connected),
		int64(rep.Failures), int64(rep.MaxChosen), int64(rep.MaxEmptySegment), rep.MaxNodeBits,
		rel.Retransmits, rel.Acks, rel.Failures, rel.Stale, rel.CtlBits, deferred)
	for _, id := range joined {
		c.hash(int64(id))
	}
	rounds := rep.Rounds * w.nw.Stretch()
	c.nodeRounds += int64(rep.NOld+len(joins)) * int64(rounds)
	c.count("core.epochs", 1)
	c.count("core.epoch_rounds", float64(rounds))
	c.countMax("core.max_node_bits", float64(rep.MaxNodeBits))
	c.count("core.failures", float64(rep.Failures))
	c.count("reliable.retransmits", float64(rel.Retransmits-w.rel.Retransmits))
	c.count("reliable.core_retransmits", float64(rel.Retransmits-w.rel.Retransmits))
	c.count("reliable.acks", float64(rel.Acks-w.rel.Acks))
	c.count("reliable.delivery_failures", float64(rel.Failures-w.rel.Failures))
	c.count("reliable.stale", float64(rel.Stale-w.rel.Stale))
	c.count("reliable.ctl_bits", float64(rel.CtlBits-w.rel.CtlBits))
	c.count("sim.deferred", float64(deferred-w.defer0))
	w.rel, w.defer0 = rel, deferred
}
