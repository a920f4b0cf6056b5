// Package metrics is the arithmetic half of R-Storm's StatisticServer
// module (§5.1): means over per-window throughput series, with warm-up
// windows dropped, the improvement percentages the paper reports, and the
// busy-time tracker behind link utilization. The series themselves (the
// paper reports throughput as tuples per 10-second window) are built by
// the simulator's window flush.
package metrics

import (
	"math"
	"time"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanTail returns the mean of xs after dropping the first skip elements —
// the paper averages throughput after it "should have stabilized and
// converged" (§6.2), so harnesses drop warm-up windows.
func MeanTail(xs []float64, skip int) float64 {
	if skip < 0 {
		skip = 0
	}
	if skip >= len(xs) {
		return Mean(xs)
	}
	return Mean(xs[skip:])
}

// ImprovementPct returns how much better `measured` is than `baseline`, in
// percent — the form the paper reports ("R-Storm achieves 30-47% higher
// throughput"). A zero baseline with positive measured returns +Inf.
func ImprovementPct(baseline, measured float64) float64 {
	if baseline == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (measured - baseline) / baseline * 100
}

// BusyTracker accumulates busy intervals for utilization accounting. Not
// safe for concurrent use; in the simulator each tracker belongs to one
// link, which only its own lane touches.
type BusyTracker struct {
	busy time.Duration
}

// AddBusy records d of busy time.
func (b *BusyTracker) AddBusy(d time.Duration) {
	if d > 0 {
		b.busy += d
	}
}

// Cancel takes back d of busy time recorded before it was spent: a link
// records each transfer's serialization when it starts, and a crash can
// cut the transfer short.
func (b *BusyTracker) Cancel(d time.Duration) {
	if d > 0 {
		b.busy -= d
	}
}

// Utilization returns busy/total clamped to [0, 1]; 0 if total <= 0.
func (b *BusyTracker) Utilization(total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	u := float64(b.busy) / float64(total)
	if u > 1 {
		u = 1
	}
	if u < 0 {
		u = 0
	}
	return u
}
