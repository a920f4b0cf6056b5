package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// update rewrites the checked-in goldens instead of comparing against
// them: `go test ./internal/experiments -run TestGoldenDiffAllExperiments
// -update`. An intended result change then arrives as one reviewable diff
// under testdata/golden.
//
//rstorm:global-ok test flag: set by flag parsing before any test runs, read-only afterwards
var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// goldenOpts are the short options the golden-diff harness runs every
// experiment under. Experiments with intrinsic timelines (memstress) or
// their own control windows (elasticity, consolidate) take what they need
// from these and override the rest — the harness only cares that the same
// options go in every time.
func goldenOpts() Options {
	return Options{
		Duration:      6 * time.Second,
		MetricsWindow: 2 * time.Second,
		Seed:          1,
	}
}

// goldenText is what a golden file holds: the rendered report, then every
// row and series value at full precision, so a deterministic shift too
// small for the rendering's one decimal still shows in the diff.
func goldenText(r *Report) string {
	var b strings.Builder
	b.WriteString(r.Render())
	b.WriteString("\n-- exact values --\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "row %q: %v %v %v\n", row.Label, row.Baseline, row.RStorm, row.ImprovementPct)
	}
	names := make([]string, 0, len(r.Series))
	for name := range r.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "series %q: %v\n", name, r.Series[name])
	}
	return b.String()
}

// checkGolden compares got against testdata/golden/<name>, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
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
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if string(want) != got {
		t.Errorf("%s differs from the checked-in golden (rerun with -update if the change is intended):\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

// TestGoldenDiffAllExperiments is the repository's determinism harness.
// Every registered experiment — adaptive control decisions, OOM kills,
// migrations and all — must reproduce its checked-in report under
// testdata/golden at both lane partitions: <id>.shards0.txt (Shards = 0,
// one lane spanning the cluster) and <id>.shards1.txt (Shards >= 1, one
// lane per rack). It also runs the one-lane partition twice, which must
// agree, and the per-rack partition at worker counts {1, 2, NumCPU},
// which must all agree — the worker count is pure parallelism, never a
// result knob (DESIGN.md §11). A new experiment is covered the moment it
// is registered in All().
//
// The one-lane run also pins the paper's headline claims: the first row
// of each throughput figure must show an R-Storm gain within ±10 points
// of the paper's, so a deliberate golden update still cannot drift the
// reproduction away from the paper unnoticed.
func TestGoldenDiffAllExperiments(t *testing.T) {
	// paperGainPct is the throughput gain each headline figure's
	// PaperClaim states.
	paperGainPct := map[string]float64{
		"fig8a": 50, "fig8b": 30, "fig8c": 47, "fig12a": 50, "fig12b": 47,
	}
	const bandPct = 10.0
	compare := func(t *testing.T, label string, want, got *Report) {
		t.Helper()
		// Structural equality first (catches NaN-free numeric drift in
		// fields a rendering might round away) …
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: reports diverged structurally:\nwant: %+v\ngot:  %+v", label, want, got)
		}
		// … then the rendered bytes, which is what the acceptance
		// criterion is stated in.
		if a, b := want.Render(), got.Render(); a != b {
			t.Errorf("%s: rendered reports differ:\n--- want ---\n%s\n--- got ---\n%s", label, a, b)
		}
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			first, err := e.Run(goldenOpts())
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			second, err := e.Run(goldenOpts())
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			compare(t, "shards=0 run-to-run", first, second)
			checkGolden(t, e.ID+".shards0.txt", goldenText(first))
			if claim, ok := paperGainPct[e.ID]; ok {
				if len(first.Rows) == 0 {
					t.Fatalf("report has no rows to check against the paper's %+.0f%%", claim)
				}
				if got := first.Rows[0].ImprovementPct; !(math.Abs(got-claim) <= bandPct) {
					t.Errorf("%s: R-Storm gain %+.1f%%, want the paper's %+.0f%% ± %.0f points",
						first.Rows[0].Label, got, claim, bandPct)
				}
			}

			shardedOpts := goldenOpts()
			shardedOpts.Shards = 1
			sharded, err := e.Run(shardedOpts)
			if err != nil {
				t.Fatalf("sharded run (shards=1): %v", err)
			}
			if e.ID == "observability" {
				// The journal and the tracer need the one-lane partition,
				// so this experiment runs at Shards = 0 whatever the
				// options say: its report must not move, and its
				// shards0 golden covers it.
				compare(t, "shards=1 vs shards=0", first, sharded)
			} else {
				checkGolden(t, e.ID+".shards1.txt", goldenText(sharded))
			}
			for _, shards := range []int{2, runtime.NumCPU()} {
				opts := goldenOpts()
				opts.Shards = shards
				got, err := e.Run(opts)
				if err != nil {
					t.Fatalf("sharded run (shards=%d): %v", shards, err)
				}
				compare(t, fmt.Sprintf("shards=%d vs shards=1", shards), sharded, got)
			}
		})
	}
}
