package main

import (
	"encoding/binary"
	"hash"
	"runtime/metrics"
	"time"
)

// opCtx carries one operation's instruments in and its outcome out.
// Every field the workloads read may be nil: tr outside traced blocks,
// h and counts outside the checked block. The workload code is the same
// in every mode; only these pointers differ.
type opCtx struct {
	tr     *tracer
	h      hash.Hash
	counts map[string]float64

	nodeRounds    int64 // simulated node-rounds the operation advanced
	bits          int64 // modelled communication bits, from the layers' own accounting
	bitNodeRounds int64 // node-rounds those bits cover
	checks        int
	failed        []string       // names of the checks that failed
	protocol      map[string]int // protocol failure events, by kind
	// phaseEnd: a network finished its phase and is still reachable.
	// measure then samples the heap, runs release, and builds the
	// block's next network if it has one.
	phaseEnd bool
	flood    bool   // ... and it is the kernel flood network
	release  func() // run by measure after the operation, untimed
}

// check records one named correctness check of the simulated outputs.
func (c *opCtx) check(name string, ok bool) {
	c.checks++
	if !ok {
		c.failed = append(c.failed, name)
	}
}

// protocolFailures records n failure events the protocol itself
// counts and survives, such as an extraction from an empty multiset.
// The paper bounds them only with high probability, so at these sizes
// a few occur at some seeds; they are reported, not checked.
func (c *opCtx) protocolFailures(kind string, n int) {
	if n == 0 {
		return
	}
	if c.protocol == nil {
		c.protocol = map[string]int{}
	}
	c.protocol[kind] += n
}

// hash adds simulated outputs to the checked block's digest.
func (c *opCtx) hash(vs ...int64) {
	if c.h == nil {
		return
	}
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		c.h.Write(b[:])
	}
}

// count adds to a layer counter of the checked block.
func (c *opCtx) count(name string, v float64) {
	if c.counts != nil {
		c.counts[name] += v
	}
}

// countMax raises a layer counter of the checked block to v.
func (c *opCtx) countMax(name string, v float64) {
	if c.counts != nil && v > c.counts[name] {
		c.counts[name] = v
	}
}

// begin opens a span around one call into a layer; end closes it.
func (c *opCtx) begin() mark { return c.tr.begin() }

func (c *opCtx) end(name string, m mark) { c.tr.end(name, m) }

// tracer records a span around every call the workloads make into a
// layer: its name, its duration and the heap objects allocated during
// it. Spans stay in memory; the per-layer metrics are computed from them
// when the run ends.
type tracer struct {
	spans  []span
	sample []metrics.Sample
}

type span struct {
	name   string
	dur    time.Duration
	allocs uint64
}

// mark is an open span.
type mark struct {
	t      time.Time
	allocs uint64
}

func newTracer() *tracer {
	return &tracer{sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

func (t *tracer) begin() mark {
	if t == nil {
		return mark{}
	}
	a := t.allocs()
	return mark{t: time.Now(), allocs: a}
}

func (t *tracer) end(name string, m mark) {
	if t == nil {
		return
	}
	d := time.Since(m.t)
	a := t.allocs()
	t.spans = append(t.spans, span{name: name, dur: d, allocs: a - m.allocs})
}

// calls returns the durations and the mean allocations of the spans
// with the given name.
func (t *tracer) calls(name string) (durs []time.Duration, meanAllocs float64) {
	var allocs uint64
	for _, s := range t.spans {
		if s.name == name {
			durs = append(durs, s.dur)
			allocs += s.allocs
		}
	}
	if len(durs) > 0 {
		meanAllocs = float64(allocs) / float64(len(durs))
	}
	return durs, meanAllocs
}
