package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestDigests runs the checked block of every workload at the default
// seed serially, at two shards, and traced: the three digests must equal
// the committed one and every check must pass. This is the determinism
// guarantee (any shard count, tracing observes only) seen from outside
// the program.
func TestDigests(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			if testing.Short() && spec.name == "scale" {
				t.Skip("n = 100k networks; skipped in -short")
			}
			want, ok := committedDigests[digestKey{spec.name, defaultSeed}]
			if !ok {
				t.Fatalf("no committed digest for %s", spec.name)
			}
			for _, cfg := range []config{
				{workload: spec.name, seed: defaultSeed, shards: 1},
				{workload: spec.name, seed: defaultSeed, shards: 2},
				{workload: spec.name, seed: defaultSeed, shards: 1, trace: true},
			} {
				res := measure(spec, cfg)
				if res.digest != want {
					t.Errorf("shards %d trace %v: digest %s, want %s", cfg.shards, cfg.trace, res.digest, want)
				}
				if res.failedChecks != 0 || res.checks == 0 {
					t.Errorf("shards %d trace %v: %d of %d checks failed", cfg.shards, cfg.trace, res.failedChecks, res.checks)
				}
				if res.ops() != res.blockOps {
					t.Errorf("a zero-second run ran %d operations, want one block of %d", res.ops(), res.blockOps)
				}
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{9, 0, false},
		{10, 0, false},
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.wantOK {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.wantOK)
		}
		if ok && tc.n-rank(tc.n, p) < 10 {
			t.Errorf("n = %d: p%v leaves %d samples beyond it", tc.n, p, tc.n-rank(tc.n, p))
		}
	}
	// Ten samples lie beyond the reported value: with 1..100 ms the p90
	// is 90 ms.
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[len(ds)-1-i] = time.Duration(i+1) * time.Millisecond
	}
	if got := tailValue(ds, 90); got != 90*time.Millisecond {
		t.Errorf("p90 of 1..100 ms = %v, want 90ms", got)
	}
}

func TestOpMsTailOmittedBelow100Ops(t *testing.T) {
	spec, _ := lookup("overlay-dos")
	for _, tc := range []struct {
		ops  int
		want bool
	}{{99, false}, {100, true}} {
		r := &runResult{opDur: make([]time.Duration, tc.ops), blockOps: 1}
		rec := newRecord(spec, config{seed: defaultSeed}, r)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(b), `"op_ms_tail"`); got != tc.want {
			t.Errorf("%d ops: op_ms_tail reported = %v, want %v", tc.ops, got, tc.want)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "scale", "--trace", "2"},
		{"--workload", "scale", "--seconds", "-1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
