package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the percentile is one or two unlucky samples.
const minBeyond = 10

// Summary is the spread of one metric's samples.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	Min    float64
	Max    float64
}

// Summarize computes the median, quartiles, extremes and count of xs. The
// quartiles use the same exclusive method as Python's
// statistics.quantiles(xs, n=4), so spreads computed here agree with
// spreads computed from the printed values.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	sum := Summary{N: n, Min: s[0], Max: s[n-1]}
	if n%2 == 1 {
		sum.Median = s[n/2]
	} else {
		sum.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		sum.Q1, sum.Q3 = s[0], s[0]
		return sum
	}
	quart := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	sum.Q1, sum.Q3 = quart(1), quart(3)
	return sum
}

// Spread is the distance between the quartiles as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p < 100),
// refusing it when fewer than minBeyond samples lie beyond it.
func Percentile(xs []float64, p int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("p%d: percentile must lie in (0, 100)", p)
	}
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p/100 * n), exact in integers
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%d refused: %d of %d samples lie beyond it, need %d",
			p, beyond, n, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}
