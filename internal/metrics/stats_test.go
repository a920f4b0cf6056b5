package metrics

import (
	"math"
	"testing"
	"time"
)

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
	if got := b.Utilization(10 * time.Second); got != 0.5 {
		t.Errorf("Utilization = %v", got)
	}
	if got := b.Utilization(time.Second); got != 1 {
		t.Errorf("Utilization clamp = %v", got)
	}
	if got := b.Utilization(0); got != 0 {
		t.Errorf("Utilization zero total = %v", got)
	}
	b.Cancel(time.Second)
	b.Cancel(-time.Second) // ignored
	if got := b.Utilization(10 * time.Second); got != 0.4 {
		t.Errorf("Utilization after Cancel = %v", got)
	}
}
