package trace

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketOfMonotonicAndBounded(t *testing.T) {
	// Exhaustive over the exact range, then spot checks across octaves:
	// indices must be monotone non-decreasing, within range, and
	// bucketUpper must bound the value with <= 1/subBuckets relative
	// error.
	prev := -1
	vals := []int64{}
	for v := int64(0); v < 4*subBuckets; v++ {
		vals = append(vals, v)
	}
	for shift := uint(6); shift < 62; shift++ {
		base := int64(1) << shift
		vals = append(vals, base-1, base, base+1, base+base/3)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, v := range vals {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf not monotonic at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		upper := bucketUpper(idx)
		if upper < v {
			t.Fatalf("bucketUpper(%d)=%d < value %d", idx, upper, v)
		}
		if v >= 2*subBuckets {
			if err := float64(upper-v) / float64(v); err > 1.0/subBuckets {
				t.Fatalf("quantization error %f > %f at %d", err, 1.0/subBuckets, v)
			}
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 10; v++ {
		h.Observe(time.Duration(v))
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("Count = %d, want 10", got)
	}
	if got := h.Quantile(0.5); got != 6 {
		t.Fatalf("p50 = %v, want 6", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Fatalf("p100 = %v, want 10", got)
	}
	if got := h.Max(); got != 10 {
		t.Fatalf("Max = %v, want 10", got)
	}
	if got := h.Mean(); got != 5 { // 55/10 truncated
		t.Fatalf("Mean = %v, want 5", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Random latencies across five orders of magnitude: reported
	// quantiles must be within the bucketing error of the exact ones.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	exact := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * float64(5*time.Millisecond))
		exact = append(exact, v)
		h.Observe(time.Duration(v))
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		got := int64(h.Quantile(q))
		if got < want {
			t.Fatalf("q%.3f = %d below exact %d", q, got, want)
		}
		if relErr := float64(got-want) / float64(want); relErr > 1.0/subBuckets {
			t.Fatalf("q%.3f = %d, exact %d, rel err %f", q, got, want, relErr)
		}
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-time.Second) // clamps to 0
	if h.Count() != 1 || h.Quantile(0.5) != 0 {
		t.Fatalf("negative observation should clamp to 0: count=%d p50=%v", h.Count(), h.Quantile(0.5))
	}
	h.Observe(time.Second)
	if got := h.Quantile(-1); got != 0 {
		t.Fatalf("q<0 should clamp: %v", got)
	}
	if got := h.Quantile(2); got != time.Second {
		t.Fatalf("q>1 should clamp to max: %v", got)
	}
}

func TestHistogramMergeAndReset(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(time.Duration(i) * time.Microsecond)
	}
	for i := 101; i <= 200; i++ {
		b.Observe(time.Duration(i) * time.Microsecond)
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	merged.Merge(nil)
	merged.Merge(NewHistogram())
	if merged.Count() != 200 {
		t.Fatalf("merged count = %d", merged.Count())
	}
	if merged.Max() != 200*time.Microsecond {
		t.Fatalf("merged max = %v", merged.Max())
	}
	all := NewHistogram()
	for i := 1; i <= 200; i++ {
		all.Observe(time.Duration(i) * time.Microsecond)
	}
	if merged.Summarize() != all.Summarize() {
		t.Fatalf("merge mismatch: %+v vs %+v", merged.Summarize(), all.Summarize())
	}
	merged.Reset()
	if merged.Count() != 0 || merged.Quantile(0.5) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestHistogramSummarize(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Max != 1000*time.Millisecond {
		t.Fatalf("Max = %v", s.Max)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
		t.Fatalf("percentiles not ordered: %+v", s)
	}
	// p99 of 1..1000ms is 991ms exact; allow bucket quantization.
	if s.P99 < 991*time.Millisecond || s.P99 > 1060*time.Millisecond {
		t.Fatalf("P99 = %v out of tolerance", s.P99)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000000) * time.Nanosecond)
	}
}
