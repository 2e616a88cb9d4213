package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose block-0 digests are committed in
// digests.go.
const defaultSeed = 1

// Set-up is repeated before the timed part until at least minSetups
// samples and minSetupTime of set-up have been taken, so setup_s is a
// median even for workloads that build once.
const (
	minSetups    = 5
	maxSetups    = 200
	minSetupTime = 500 * time.Millisecond
)

// config is what one run is asked to do. The command line sets all but
// shards, the simulator workers inside a round: measure runs at 1 unless
// a caller sets more, as the digest tests do to show that results are
// identical at any value.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	shards   int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed; every input is generated from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measure for at least this many seconds (whole blocks)")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", traceFlag)
		return 2
	}
	cfg.trace = traceFlag == 1
	spec, ok := lookup(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if cfg.seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 0")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res := measure(spec, cfg)
	rec := newRecord(spec, cfg, res)
	out := result{Correct: rec.Correct, Attempted: res.ops(), Failed: res.failedOps}
	if cfg.trace {
		out.Metrics = perLayerMetrics(res)
	} else {
		out.Metrics = endToEndMetrics(res)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: outputs incorrect (digest %s, want %s; %d of %d checks failed)\n",
			cfg.workload, cfg.seed, rec.Digest, rec.DigestWant, rec.FailedChecks, rec.Checks)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is everything one run measured.
type runResult struct {
	opDur      []time.Duration // host time of each operation, in order
	blockOps   int
	setups     []time.Duration
	cpu        time.Duration // process CPU (all threads) inside operations
	nodeRounds int64

	// Traced run, after block 0: host times of the operations that ran
	// traced and of those that ran untraced, interleaved one to one.
	tracedDur, untracedDur []time.Duration

	// Checked block (block 0): deterministic quantities.
	digest        string
	bits          int64
	bitNodeRounds int64
	counts        map[string]float64
	liveBytes     int64 // heap in use at the measured phase ends
	liveNodes     int64 // nodes held at those points
	floodLive     float64

	checks, failedChecks, failedOps int
	failures                        map[string]int // failed checks by name
	protocolFailures                map[string]int // protocol failure events by kind
	peakRSS                         int64          // bytes
	gcCycles                        uint32
	gcPause                         time.Duration
	allocBytes                      uint64
	spans                           *tracer
}

func (r *runResult) ops() int { return len(r.opDur) }

// measure runs one workload: set-up samples, then whole blocks of
// operations until cfg.seconds of wall time have passed (at least one
// block). Block 0 is the checked block: its outputs are hashed into the
// digest and its layer counts are reported. In a traced run block 0 is
// traced whole, so every layer has spans; after it, operations alternate
// traced and untraced, so that trace.overhead_share compares the two at
// the same stretch of network state.
func measure(spec *workloadSpec, cfg config) *runResult {
	cfg.shards = max(cfg.shards, 1)
	res := &runResult{counts: map[string]float64{}, failures: map[string]int{}, protocolFailures: map[string]int{}}
	var total time.Duration
	for len(res.setups) < maxSetups && (len(res.setups) < minSetups || total < minSetupTime) {
		// One sample is every construction of block 0, each network
		// released before the next is built, as in the timed part.
		w := spec.build(cfg)
		var d time.Duration
		for _, stage := range w.setup(0) {
			t0 := time.Now()
			stage()
			d += time.Since(t0)
			w.close()
		}
		res.setups = append(res.setups, d)
		total += d
	}
	runtime.GC()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		res.spans = tr
	}
	w := spec.build(cfg)
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	h := sha256.New()
	start := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	for b := 0; b == 0 || time.Since(start) < limit; b++ {
		stages := w.setup(b)
		var setup time.Duration
		built := 0
		buildNext := func() {
			t0 := time.Now()
			stages[built]()
			setup += time.Since(t0)
			built++
		}
		if len(stages) > 0 {
			buildNext()
		}
		if b == 0 {
			res.blockOps = w.blockOps()
		}
		for j := 0; j < res.blockOps; j++ {
			i := b*res.blockOps + j
			traced := tr != nil && (b == 0 || i%2 == 1)
			c := &opCtx{}
			if traced {
				c.tr = tr
			}
			if b == 0 {
				c.h, c.counts = h, res.counts
			}
			cpu0 := cpuTime()
			t1 := time.Now()
			w.op(i, c)
			d := time.Since(t1)
			res.opDur = append(res.opDur, d)
			res.cpu += cpuTime() - cpu0
			if tr != nil && b > 0 {
				if traced {
					res.tracedDur = append(res.tracedDur, d)
				} else {
					res.untracedDur = append(res.untracedDur, d)
				}
			}
			res.nodeRounds += c.nodeRounds
			res.checks += c.checks
			for _, name := range c.failed {
				res.failedChecks++
				res.failures[name]++
			}
			if len(c.failed) > 0 {
				res.failedOps++
			}
			for kind, n := range c.protocol {
				res.protocolFailures[kind] += n
			}
			if b == 0 {
				res.bits += c.bits
				res.bitNodeRounds += c.bitNodeRounds
				if c.phaseEnd {
					live := liveHeap()
					res.liveBytes += live
					res.liveNodes += int64(w.nodes())
					if c.flood {
						res.floodLive = float64(live) / float64(w.nodes())
					}
				}
			}
			if c.release != nil {
				c.release()
			}
			if c.phaseEnd && built < len(stages) {
				buildNext()
			}
		}
		if len(stages) > 0 {
			res.setups = append(res.setups, setup)
		}
		if b == 0 {
			res.digest = hex.EncodeToString(h.Sum(nil))[:16]
		}
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.peakRSS = peakRSS()
	w.close()
	if tr != nil && spec.traceAfter != nil {
		spec.traceAfter(cfg, tr)
	}
	return res
}

// liveHeap forces a collection and returns the heap in use.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cpuTime is the process's user+system time, all threads included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports KiB
}

// perBlock scales a whole-run total to one block of operations.
func (r *runResult) perBlock(v float64) float64 {
	return v * float64(r.blockOps) / float64(r.ops())
}

func endToEndMetrics(r *runResult) map[string]metric {
	var opTime time.Duration
	for _, d := range r.opDur {
		opTime += d
	}
	return map[string]metric{
		"node_rounds_per_s":       {float64(r.nodeRounds) / opTime.Seconds(), "1/s"},
		"cpu_s":                   {r.perBlock(r.cpu.Seconds()), "s"},
		"op_ms_p50":               {ms(median(r.opDur)), "ms"},
		"setup_s":                 {median(r.setups).Seconds(), "s"},
		"peak_rss_mb":             {float64(r.peakRSS) / 1e6, "MB"},
		"live_bytes_per_node":     {float64(r.liveBytes) / float64(r.liveNodes), "B"},
		"sim_bits_per_node_round": {float64(r.bits) / float64(r.bitNodeRounds), "bits"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for none.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailLadder lists the percentiles op_ms_tail may report.
var tailLadder = []float64{99.99, 99.9, 99, 90}

// tailPercentile returns the highest percentile of the ladder that has
// at least ten of n samples beyond it; ok is false when none has, which
// is the case below 100 samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		// Samples strictly above the nearest-rank percentile.
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	k := int(p/100*float64(n) + 0.9999999)
	return max(1, min(n, k))
}

// tailValue is the nearest-rank value at percentile p.
func tailValue(ds []time.Duration, p float64) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// record is the line before the result: the environment, the sizes,
// and what the result line cannot carry.
type record struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	GoVersion    string            `json:"go"`
	NumCPU       int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	Rev          string            `json:"rev"`
	Sizes        map[string]string `json:"sizes"`
	Ops          int               `json:"ops"`
	BlockOps     int               `json:"block_ops"`
	Digest       string            `json:"digest"`
	DigestWant   string            `json:"digest_want,omitempty"`
	Checks       int               `json:"checks"`
	FailedChecks int               `json:"failed_checks"`
	Failures     map[string]int    `json:"failures,omitempty"`
	// ProtocolFailures are the failure events the protocols count and
	// survive (w.h.p. bounds), over the whole run; not checks.
	ProtocolFailures map[string]int `json:"protocol_failures,omitempty"`
	ErrorShare       float64        `json:"error_share"`
	OpMsTail         *tailMetric    `json:"op_ms_tail,omitempty"`
	Correct          bool           `json:"correct"`
}

type tailMetric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Percentile float64 `json:"percentile"`
	Ops        int     `json:"ops"`
}

func newRecord(spec *workloadSpec, cfg config, r *runResult) record {
	rec := record{
		Workload: spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Rev: gitRev(), Sizes: spec.sizes, Ops: r.ops(), BlockOps: r.blockOps,
		Digest: r.digest, Checks: r.checks, FailedChecks: r.failedChecks, Failures: r.failures,
		ProtocolFailures: r.protocolFailures,
		ErrorShare:       errorShare(r), OpMsTail: opMsTail(r.opDur),
	}
	if want, ok := committedDigests[digestKey{spec.name, cfg.seed}]; ok {
		rec.DigestWant = want
	}
	rec.Correct = r.failedChecks == 0 && (rec.DigestWant == "" || rec.DigestWant == rec.Digest)
	return rec
}

func errorShare(r *runResult) float64 {
	if r.checks == 0 {
		return 0
	}
	return float64(r.failedChecks) / float64(r.checks)
}

// opMsTail is nil below 100 operations, where no percentile of the
// ladder has ten samples beyond it.
func opMsTail(ds []time.Duration) *tailMetric {
	p, ok := tailPercentile(len(ds))
	if !ok {
		return nil
	}
	return &tailMetric{Value: ms(tailValue(ds, p)), Unit: "ms", Percentile: p, Ops: len(ds)}
}

// gitRev returns the commit of the checkout, or "unknown" when the
// checkout is not a git repository. Only a .git in the working
// directory is consulted, never one in a parent.
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	gitDir := filepath.Join(wd, ".git")
	if _, err := os.Stat(gitDir); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "--git-dir", gitDir, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
