package orchestra

import "testing"

// FuzzParseSpec checks that the matrix parser never panics and that every
// accepted spec expands to a bounded number of cells.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"",
		"all",
		"failover,consolidate × seeds=1..16",
		"all × seeds=1,3,5 × duration=6s,12s",
		"fig8a x seeds=1..4 x window=2s",
		"a ×seeds=1×duration=1s",
		"fig8a × seeds=1..9223372036854775807",
		"fig8a × seeds=9223372036854775807..9223372036854775807",
		"a,b × seeds=1..40000",
		"fig8a × seeds=4..1",
		"fig8a × × seeds=1",
		"fig8a, × seeds=1",
		"fig8a × window=0s",
		"seeds=1",
		"a × seeds=1..2..3",
		"a × duration=1h,1ns × window=1us",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n := len(spec.Cells()); n < 1 || n > maxCells {
			t.Fatalf("ParseSpec(%q) expands to %d cells, want 1..%d", s, n, maxCells)
		}
	})
}
