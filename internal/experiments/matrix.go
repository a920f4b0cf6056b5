package experiments

import (
	"context"
	"fmt"

	"rstorm/internal/orchestra"
)

// This file adapts the experiment registry onto the parallel scenario
// orchestrator (internal/orchestra, DESIGN.md §10). Each matrix cell
// constructs its own cluster, simulator, profiler and report inside
// Experiment.Run — nothing is shared between cells — so the pool can
// burn every core without perturbing any run's determinism.

// RunResult is one experiment's outcome from RunAll, in registry order.
type RunResult struct {
	ID     string
	Report *Report
	Err    error
}

// RunAll runs every registered experiment once with the given options
// across a bounded pool of parallelism workers (<= 0 means NumCPU) and
// returns the results in paper order regardless of completion order. A
// failing experiment fails its own slot only; the returned error is
// non-nil only when ctx was cancelled.
func RunAll(ctx context.Context, parallelism int, opts Options) ([]RunResult, error) {
	all := All()
	results := make([]RunResult, len(all))
	cells := make([]orchestra.Cell, len(all))
	for i, e := range all {
		results[i] = RunResult{ID: e.ID}
		cells[i] = orchestra.Cell{
			Key: e.ID,
			Run: func(context.Context) (string, error) {
				// The pool guarantees exactly one worker touches index i,
				// and its WaitGroup join publishes the write before
				// orchestra.Run returns.
				results[i].Report, results[i].Err = e.Run(opts)
				return "", results[i].Err
			},
		}
	}
	run, err := orchestra.Run(ctx, cells, orchestra.Options{Workers: parallelism})
	for i, c := range run.Cells {
		if c.Skipped {
			results[i].Err = c.Err
		}
	}
	return results, err
}

// MatrixCells resolves a parsed matrix spec against the registry: "all"
// expands to the full catalogue in paper order, every other ID must be
// registered, and each cell's unset knobs fall back to base. The
// returned cells render their reports under their cell key.
func MatrixCells(spec *orchestra.Spec, base Options) ([]orchestra.Cell, error) {
	// "all" multiplies the rest of the matrix by the whole catalogue. The
	// expansion happens at the ID level, before the cross product, so the
	// matrix order (experiments vary slowest) is preserved.
	resolved := *spec
	resolved.IDs = nil
	for _, id := range spec.IDs {
		if id != "all" {
			resolved.IDs = append(resolved.IDs, id)
			continue
		}
		for _, e := range All() {
			resolved.IDs = append(resolved.IDs, e.ID)
		}
	}
	cellSpecs := resolved.Cells()
	cells := make([]orchestra.Cell, 0, len(cellSpecs))
	for _, cs := range cellSpecs {
		e, ok := ByID(cs.ID)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q in matrix spec (rstorm-sim -matrix list names them)", cs.ID)
		}
		opts := base
		if cs.Seed != 0 {
			opts.Seed = cs.Seed
		}
		if cs.Duration != 0 {
			opts.Duration = cs.Duration
		}
		if cs.Window != 0 {
			opts.MetricsWindow = cs.Window
		}
		cells = append(cells, orchestra.Cell{
			Key: cs.Key(),
			Run: func(context.Context) (string, error) {
				report, err := e.Run(opts)
				if err != nil {
					return "", err
				}
				return report.Render(), nil
			},
		})
	}
	return cells, nil
}
