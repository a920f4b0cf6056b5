package main

import (
	"strings"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected quartiles from statistics.quantiles(xs, n=4).
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{7, 1, 3, 5, 9}, 2, 5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		s := Summarize(c.xs)
		if s.N != len(c.xs) || s.Q1 != c.q1 || s.Median != c.median || s.Q3 != c.q3 {
			t.Errorf("Summarize(%v) = n=%d q1=%v median=%v q3=%v, want q1=%v median=%v q3=%v",
				c.xs, s.N, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
		}
	}
	s := Summarize([]float64{4, 2, 8})
	if s.Min != 2 || s.Max != 8 {
		t.Errorf("min/max = %v/%v, want 2/8", s.Min, s.Max)
	}
	if got := (Summary{Median: 10, Q1: 9, Q3: 11}).Spread(); got != 0.2 {
		t.Errorf("Spread = %v, want 0.2", got)
	}
	if (Summarize(nil) != Summary{}) {
		t.Error("Summarize(nil) is not the zero Summary")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[n-1-i] = float64(i + 1) // descending: Percentile must sort
		}
		return out
	}
	if v, err := Percentile(xs(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := Percentile(xs(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	for _, c := range []struct{ n, p int }{{99, 90}, {999, 99}, {5, 50}} {
		_, err := Percentile(xs(c.n), c.p)
		if err == nil {
			t.Errorf("p%d of %d samples was not refused", c.p, c.n)
			continue
		}
		if !strings.HasPrefix(err.Error(), "p") || !strings.Contains(err.Error(), "refused") {
			t.Errorf("refusal %q does not name the percentile", err)
		}
	}
	if _, err := Percentile(xs(100), 100); err == nil {
		t.Error("p100 accepted")
	}
}
