package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestWindowedBucketsByTime(t *testing.T) {
	w, err := NewWindowed(10 * time.Second)
	if err != nil {
		t.Fatalf("NewWindowed: %v", err)
	}
	w.Record(1*time.Second, 1)
	w.Record(9*time.Second, 2)
	w.Record(10*time.Second, 4) // next bucket
	w.Record(25*time.Second, 8)
	got := w.Series(30 * time.Second)
	want := []float64{3, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("Series = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Series = %v, want %v", got, want)
		}
	}
	if w.Total() != 15 {
		t.Errorf("Total = %v", w.Total())
	}
}

func TestWindowedZeroFills(t *testing.T) {
	w, _ := NewWindowed(10 * time.Second)
	w.Record(5*time.Second, 1)
	got := w.Series(50 * time.Second)
	if len(got) != 5 {
		t.Fatalf("Series length = %d, want 5", len(got))
	}
	for i := 1; i < 5; i++ {
		if got[i] != 0 {
			t.Fatalf("bucket %d = %v, want 0", i, got[i])
		}
	}
}

func TestWindowedNegativeTimeClamped(t *testing.T) {
	w, _ := NewWindowed(time.Second)
	w.Record(-time.Hour, 7)
	if got := w.Series(time.Second); got[0] != 7 {
		t.Fatalf("Series = %v", got)
	}
}

func TestNewWindowedRejectsBadWindow(t *testing.T) {
	if _, err := NewWindowed(0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewWindowed(-time.Second); err == nil {
		t.Error("negative window accepted")
	}
}

func TestSumSeries(t *testing.T) {
	got := SumSeries([]float64{1, 2, 3}, []float64{10, 20}, nil)
	want := []float64{11, 22, 3}
	if len(got) != len(want) {
		t.Fatalf("SumSeries = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SumSeries = %v, want %v", got, want)
		}
	}
	if out := SumSeries(); len(out) != 0 {
		t.Errorf("SumSeries() = %v", out)
	}
}

func TestMeanAndTail(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := MeanTail([]float64{100, 2, 4}, 1); got != 3 {
		t.Errorf("MeanTail = %v", got)
	}
	if got := MeanTail([]float64{1, 2}, 10); got != 1.5 {
		t.Errorf("MeanTail with oversized skip = %v", got)
	}
	if got := MeanTail([]float64{5, 1}, -3); got != 3 {
		t.Errorf("MeanTail negative skip = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {50, 5}, {100, 9}, {101, 9}, {-5, 1},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil)")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Errorf("MinMax(nil) = %v %v", lo, hi)
	}
}

func TestImprovementPct(t *testing.T) {
	if got := ImprovementPct(100, 150); got != 50 {
		t.Errorf("ImprovementPct = %v", got)
	}
	if got := ImprovementPct(200, 100); got != -50 {
		t.Errorf("ImprovementPct = %v", got)
	}
	if got := ImprovementPct(0, 5); !math.IsInf(got, 1) {
		t.Errorf("ImprovementPct(0, 5) = %v", got)
	}
	if got := ImprovementPct(0, 0); got != 0 {
		t.Errorf("ImprovementPct(0, 0) = %v", got)
	}
}

func TestBusyTracker(t *testing.T) {
	var b BusyTracker
	b.AddBusy(3 * time.Second)
	b.AddBusy(-time.Second) // ignored
	b.AddBusy(2 * time.Second)
	if b.Busy() != 5*time.Second {
		t.Errorf("Busy = %v", b.Busy())
	}
	if got := b.Utilization(10 * time.Second); got != 0.5 {
		t.Errorf("Utilization = %v", got)
	}
	if got := b.Utilization(time.Second); got != 1 {
		t.Errorf("Utilization clamp = %v", got)
	}
	if got := b.Utilization(0); got != 0 {
		t.Errorf("Utilization zero total = %v", got)
	}
}

func TestQuickWindowedTotalEqualsSeriesSum(t *testing.T) {
	f := func(raw []uint16) bool {
		w, err := NewWindowed(time.Second)
		if err != nil {
			return false
		}
		var maxAt time.Duration
		for _, r := range raw {
			at := time.Duration(r) * time.Millisecond
			if at > maxAt {
				maxAt = at
			}
			w.Record(at, 1)
		}
		series := w.Series(maxAt + time.Second)
		var sum float64
		for _, v := range series {
			sum += v
		}
		return sum == w.Total() && sum == float64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []int16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		p := float64(pRaw % 101)
		v := Percentile(xs, p)
		lo, hi := MinMax(xs)
		return v >= lo && v <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkWindowedRecord measures the per-tuple hot-path cost of
// Windowed.Record.
func BenchmarkWindowedRecord(b *testing.B) {
	w, err := NewWindowed(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Record(5, 1)
	}
}
