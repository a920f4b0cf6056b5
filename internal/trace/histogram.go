// Package trace is the unified observability layer (DESIGN.md §8): fixed
// log-bucketed latency histograms cheap enough for the simulator's tuple
// hot path, deterministic sampled tuple tracing with per-hop spans, and a
// causally-ordered decision journal unifying the simulator's and the
// adaptive loop's event streams. Everything here is opt-in from the
// callers' side: the simulator and the adaptive loop behave
// byte-identically when no histogram, tracer, or journal is attached.
package trace

import (
	"math/bits"
	"time"
)

// Histogram bucketing: HDR-style base-2 buckets with 2^subBits linear
// sub-buckets per power of two. Values are durations in nanoseconds;
// recording is a handful of integer operations (no floating point, no
// allocation), so a histogram can sit directly on the simulator's
// complete-tree latency path.
const (
	// subBits sets the per-octave resolution: 16 sub-buckets bound the
	// relative quantization error at 1/16 = 6.25%, plenty for p99
	// reporting while keeping a histogram under 8 KB.
	subBits    = 4
	subBuckets = 1 << subBits
	// numBuckets covers the full non-negative int64 range: values below
	// 2*subBuckets index exactly; above, index = exp*subBuckets + mantissa
	// with exp <= 63-subBits.
	numBuckets = (64 - subBits) * subBuckets
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
// Monotonic and contiguous: small values (< 2^(subBits+1)) are exact,
// larger ones land in [value, value*(1+1/subBuckets)).
//
//rstorm:hotpath
func bucketOf(v int64) int {
	u := uint64(v)
	if u < 2*subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - (subBits + 1)
	return exp<<subBits + int(u>>uint(exp))
}

// bucketUpper returns the largest value mapping to bucket idx — the value
// a quantile query reports for the bucket.
func bucketUpper(idx int) int64 {
	if idx < 2*subBuckets {
		return int64(idx)
	}
	exp := uint(idx>>subBits - 1)
	mantissa := int64(idx&(subBuckets-1) | subBuckets)
	return (mantissa+1)<<exp - 1
}

// Histogram is a fixed-size log-bucketed latency histogram. Recording is
// allocation-free integer arithmetic; quantiles are computed on demand by
// scanning the bucket array. Not safe for concurrent use: each histogram
// is owned by one single-threaded recorder (the simulator event loop) and
// read at window boundaries.
type Histogram struct {
	count   int64
	sum     int64
	maxSeen int64
	buckets [numBuckets]int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative values clamp to zero.
//
//rstorm:hotpath
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.maxSeen {
		h.maxSeen = v
	}
	h.buckets[bucketOf(v)]++
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest recorded value (exact, not quantized).
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxSeen) }

// Mean returns the arithmetic mean of recorded values.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest rank over
// the buckets, reported as the containing bucket's upper bound (within
// 6.25% of the true value). Zero observations yield zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for i := 0; i < numBuckets; i++ {
		seen += h.buckets[i]
		if seen > rank {
			upper := bucketUpper(i)
			if upper > h.maxSeen {
				// The top bucket's bound can overshoot the true maximum;
				// the exact max is tracked, so report it instead.
				upper = h.maxSeen
			}
			return time.Duration(upper)
		}
	}
	return time.Duration(h.maxSeen)
}

// Merge folds o's observations into h. Nil or empty o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.maxSeen > h.maxSeen {
		h.maxSeen = o.maxSeen
	}
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Reset clears the histogram for the next window.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary is a histogram's value-typed digest: safe to copy into a
// TaskSample whose backing histogram is about to be reset.
type Summary struct {
	Count int64         `json:"count"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// Summarize computes the standard percentile digest.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}
