package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites the committed quick tables instead of comparing
// against them: go test ./internal/exp -run TestAllExperimentsQuick -update.
// Regenerating them is a deliberate step, to be reviewed like any other
// change to a recorded result.
var updateGolden = flag.Bool("update", false, "rewrite testdata/quick golden tables")

// TestAllExperimentsQuick runs every experiment driver in quick mode
// and compares each wall-clock-masked table with its committed golden
// file in testdata/quick/<ID>.txt. This doubles as an integration test
// across all subsystems, and pins every quick table to a recorded
// expectation rather than only to the current code run a second way.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl := e.Run(Options{Seed: 42, Quick: true})
			if tbl == nil || tbl.NumRows() == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			out := tbl.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s table title missing id:\n%s", e.ID, out)
			}
			got := MaskWallClock(tbl).String()
			path := filepath.Join("testdata", "quick", e.ID+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Fatalf("%s quick table differs from %s:\n--- got\n%s\n--- want\n%s", e.ID, path, got, want)
			}
		})
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Claim == "" {
			t.Fatalf("%s has no claim", e.ID)
		}
	}
	if len(seen) != 28 {
		t.Fatalf("expected 28 experiments, have %d", len(seen))
	}
}

// TestHeadlineResultsQuick asserts the load-bearing outcomes the paper
// claims, in quick mode: E4's speed-up exists, E5's degenerate budget
// fails, E8's late adversary never disconnects.
func TestHeadlineResultsQuick(t *testing.T) {
	o := Options{Seed: 7, Quick: true}
	e4 := E4RapidVsWalk(o).String()
	if !strings.Contains(e4, "x") {
		t.Fatalf("E4 has no speed-up column:\n%s", e4)
	}
	e8 := E8DoSConnectivity(o)
	if e8.NumRows() < 2 {
		t.Fatalf("E8 too few rows")
	}
}
