package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// goldenOpts are the short options the golden-diff harness runs every
// experiment under. Experiments with intrinsic timelines (memstress) or
// their own control windows (elasticity, consolidate) take what they need
// from these and override the rest — the harness only cares that the same
// options go in twice.
func goldenOpts() Options {
	return Options{
		Duration:      6 * time.Second,
		MetricsWindow: 2 * time.Second,
		Seed:          1,
	}
}

// TestGoldenDiffAllExperiments is the repository's determinism harness:
// every registered experiment — adaptive control decisions, OOM kills,
// migrations and all — must produce byte-identical reports when run twice
// with the same options, under both kernels. The legacy kernel
// (Shards = 0) is checked run-to-run; the sharded kernel is additionally
// checked across worker counts {1, 2, NumCPU}, which must all agree —
// Shards >= 1 is pure parallelism, never a result knob (DESIGN.md §11).
// It subsumes the per-experiment ad-hoc determinism checks; a new
// experiment is covered the moment it is registered in All().
//
// The legacy run also pins the paper's headline claims: the first row of
// each throughput figure must show an R-Storm gain within ±10 points of
// the paper's, so a change that moves a result fails here even when it
// moves it deterministically.
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
			compare(t, "legacy run-to-run", first, second)
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
