package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"rstorm/internal/experiments"
	"rstorm/internal/orchestra"
)

// minGainPct is the floor on each headline figure's R-Storm gain; the paper
// reports 30% to 50%.
const minGainPct = 30

// headline are the figures whose throughput gain is the paper's claim; a
// short run keeps two of them.
var (
	headline      = []string{"fig8a", "fig8b", "fig8c", "fig12a", "fig12b"}
	shortHeadline = []string{"fig8b", "fig12b"}
)

// suiteCell is one experiment of the suite and the slot its report lands in.
type suiteCell struct {
	exp    experiments.Experiment
	report *experiments.Report
}

// suiteCells builds the suite: every registered experiment, or in a short
// run two headline figures.
func suiteCells(short bool) []*suiteCell {
	var cells []*suiteCell
	for _, e := range experiments.All() {
		if short && !slices.Contains(shortHeadline, e.ID) {
			continue
		}
		cells = append(cells, &suiteCell{exp: e})
	}
	return cells
}

// runSuite times whole runs of the experiment suite across one worker per
// CPU, as experiments.RunAll runs it: each experiment is one orchestra
// cell. Traced ops also put a span around each cell.
func runSuite(r *runner) error {
	// 1.5 s is the shortest run the multitenant experiment accepts.
	opts := experiments.Options{Duration: 1500 * time.Millisecond, MetricsWindow: 500 * time.Millisecond}
	if r.short {
		opts.Duration, opts.MetricsWindow = 500*time.Millisecond, 250*time.Millisecond
	}
	var cells []*suiteCell
	var gains, longest, cellSum []float64
	for r.more() {
		r.next()
		opts.Seed = r.scenario()
		// The suite's own set-up is the registry lookup and cell build: a
		// few microseconds. Each experiment builds its inputs inside its
		// cell, so that work is part of the op.
		if err := r.setup(func() error { cells = suiteCells(r.short); return nil }); err != nil {
			return err
		}
		r.op(func(t *Tracer, parent int) (float64, error) {
			durs, err := runCells(t, parent, cells, opts)
			if err != nil {
				return 0, err
			}
			if t != nil {
				sum := 0.0
				for _, d := range durs {
					sum += d
				}
				longest = append(longest, Summarize(durs).Max)
				cellSum = append(cellSum, sum)
			}
			want := headline
			if r.short {
				want = shortHeadline
			}
			gain, err := checkGains(cells, len(want))
			if err != nil {
				return 0, err
			}
			gains = append(gains, gain)
			return float64(len(cells)), r.sameDigest(opts.Seed, renderAll(cells))
		})
	}
	r.extra["rstorm_gain_pct"] = medianOf(gains, "%")
	if r.tr != nil {
		r.extra["orchestra.longest_cell_s"] = medianOf(longest, "s")
		r.extra["orchestra.cell_sum_s"] = medianOf(cellSum, "s")
	}
	return nil
}

// runCells runs the cells on the orchestrator, one span per cell, and
// returns each cell's wall time in seconds.
func runCells(t *Tracer, parent int, cells []*suiteCell, opts experiments.Options) ([]float64, error) {
	durs := make([]float64, len(cells))
	oc := make([]orchestra.Cell, len(cells))
	for i, c := range cells {
		oc[i] = orchestra.Cell{Key: c.exp.ID, Run: func(context.Context) (string, error) {
			id := t.Begin("experiments."+c.exp.ID, parent)
			t0 := time.Now()
			rep, err := c.exp.Run(opts)
			durs[i] = time.Since(t0).Seconds()
			t.End(id)
			c.report = rep
			return "", err
		}}
	}
	id := t.Begin("orchestra.Run", parent)
	res, err := orchestra.Run(context.Background(), oc, orchestra.Options{Workers: runtime.NumCPU()})
	t.End(id)
	if err != nil {
		return nil, err
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			return nil, fmt.Errorf("%s: %w", c.Key, c.Err)
		}
	}
	return durs, nil
}

// checkGains checks the gain of every headline figure among the cells,
// of which there must be want, and returns their mean.
func checkGains(cells []*suiteCell, want int) (float64, error) {
	sum, n := 0.0, 0
	for _, c := range cells {
		if !slices.Contains(headline, c.exp.ID) {
			continue
		}
		if c.report == nil || len(c.report.Rows) == 0 {
			return 0, fmt.Errorf("%s: no report rows", c.exp.ID)
		}
		g := c.report.Rows[0].ImprovementPct
		if g < minGainPct {
			return 0, fmt.Errorf("%s: R-Storm gain %.1f%% below %d%%", c.exp.ID, g, minGainPct)
		}
		sum += g
		n++
	}
	if n != want {
		return 0, fmt.Errorf("%d of %d headline figures ran", n, want)
	}
	return sum / float64(n), nil
}

// renderAll is the suite's output, whose digest every op must repeat.
func renderAll(cells []*suiteCell) string {
	var b strings.Builder
	for _, c := range cells {
		b.WriteString(c.report.Render())
	}
	return b.String()
}
