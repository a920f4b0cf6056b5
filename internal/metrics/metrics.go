// Package metrics is the analogue of R-Storm's StatisticServer module
// (§5.1): it collects throughput at task, component, and topology level,
// plus node utilization accounting, over fixed windows of simulated time —
// the paper reports throughput as tuples per 10-second window.
package metrics

import (
	"fmt"
	"time"
)

// Windowed accumulates values into fixed-duration buckets of virtual
// time. It is NOT safe for concurrent use: every writer in the
// repository is the simulator's single-threaded event loop, and Record
// sits on its per-tuple hot path — a lock here would be paid millions of
// times per run to guard nothing.
type Windowed struct {
	window  time.Duration
	buckets []float64
}

// NewWindowed returns a Windowed series with the given bucket duration.
func NewWindowed(window time.Duration) (*Windowed, error) {
	if window <= 0 {
		return nil, fmt.Errorf("window %v, want > 0", window)
	}
	return &Windowed{window: window}, nil
}

// Record adds v into the bucket containing virtual time at.
//
//rstorm:hotpath
func (w *Windowed) Record(at time.Duration, v float64) {
	if at < 0 {
		at = 0
	}
	idx := int(at / w.window)
	for len(w.buckets) <= idx {
		w.buckets = append(w.buckets, 0)
	}
	w.buckets[idx] += v
}

// Series returns a copy of the buckets, zero-filled through the bucket
// containing horizon (exclusive of a trailing partial bucket when horizon
// lands exactly on a boundary).
func (w *Windowed) Series(horizon time.Duration) []float64 {
	n := int(horizon / w.window)
	if n < 0 {
		n = 0
	}
	out := make([]float64, n)
	copy(out, w.buckets)
	return out
}

// Total returns the sum over all buckets.
func (w *Windowed) Total() float64 {
	var sum float64
	for _, b := range w.buckets {
		sum += b
	}
	return sum
}

// SumSeries adds series elementwise, zero-extending shorter inputs.
func SumSeries(series ...[]float64) []float64 {
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	out := make([]float64, maxLen)
	for _, s := range series {
		for i, v := range s {
			out[i] += v
		}
	}
	return out
}
