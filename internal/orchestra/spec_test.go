package orchestra

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseSpecGrammar(t *testing.T) {
	tests := []struct {
		in   string
		want Spec
	}{
		{"failover", Spec{IDs: []string{"failover"}}},
		{"failover,consolidate × seeds=1..4", Spec{
			IDs:   []string{"failover", "consolidate"},
			Seeds: []int64{1, 2, 3, 4},
		}},
		{"fig8a x seeds=2,5,9", Spec{
			IDs:   []string{"fig8a"},
			Seeds: []int64{2, 5, 9},
		}},
		{"all × seeds=1..2 × duration=6s,12s × window=2s", Spec{
			IDs:       []string{"all"},
			Seeds:     []int64{1, 2},
			Durations: []time.Duration{6 * time.Second, 12 * time.Second},
			Windows:   []time.Duration{2 * time.Second},
		}},
		// The cross may be glued to its operands.
		{"fig8a ×seeds=3", Spec{IDs: []string{"fig8a"}, Seeds: []int64{3}}},
		{"fig8a×seeds=3", Spec{IDs: []string{"fig8a"}, Seeds: []int64{3}}},
		// A range ending at the largest seed stops there instead of wrapping.
		{"fig8a × seeds=9223372036854775806..9223372036854775807", Spec{
			IDs:   []string{"fig8a"},
			Seeds: []int64{math.MaxInt64 - 1, math.MaxInt64},
		}},
	}
	for _, tc := range tests {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, *got, tc.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	tests := []struct {
		in      string
		wantErr string
	}{
		{"", "empty matrix spec"},
		{"   ", "empty matrix spec"},
		{"× seeds=1", "empty term"},
		{"fig8a × × seeds=1", "empty term"},
		{"fig8a ×", "empty term"},
		{"seeds=1..4", "first term must name experiments"},
		{"fig8a, × seeds=1", "empty experiment ID"},
		{"fig8a × seeds=4..1", "descending"},
		{"fig8a × seeds=0..4", "out of range"},
		{"fig8a × seeds=zero", "bad seed"},
		{"fig8a × seeds=", "not key=values"},
		{"fig8a × colour=blue", "unknown knob"},
		{"fig8a × seeds=1 × seeds=2", "duplicate seeds term"},
		{"fig8a × duration=1s × duration=2s", "duplicate duration term"},
		{"fig8a × window=2s × window=4s", "duplicate window term"},
		{"fig8a × duration=fast", "bad duration"},
		{"fig8a × duration=-3s", "out of range"},
		{"fig8a × window=0s", "out of range"},
		{"fig8a fig8b × seeds=1", "not separated by ×"},
		{"fig8a × seeds=1..9223372036854775807", "more than 65536 values"},
		{"fig8a × seeds=1..100000000000", "more than 65536 values"},
		{"fig8a × seeds=1..65537", "more than 65536 values"},
		{"a,b × seeds=1..32769", "more than 65536 cells"},
		{"a,b × seeds=1..256 × duration=1s,2s × window=1s,2s,3s,4s,5s,6s,7s,8s,9s,10s,11s,12s,13s,14s,15s,16s,17s,18s,19s,20s,21s,22s,23s,24s,25s,26s,27s,28s,29s,30s,31s,32s,33s,34s,35s,36s,37s,38s,39s,40s,41s,42s,43s,44s,45s,46s,47s,48s,49s,50s,51s,52s,53s,54s,55s,56s,57s,58s,59s,60s,61s,62s,63s,64s,65s", "more than 65536 cells"},
	}
	for _, tc := range tests {
		_, err := ParseSpec(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSpec(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestSpecCellsMatrixOrder pins the row-major expansion order — the
// deterministic merge key: experiments vary slowest, then seeds, then
// durations, then windows.
func TestSpecCellsMatrixOrder(t *testing.T) {
	spec := &Spec{
		IDs:       []string{"a", "b"},
		Seeds:     []int64{1, 2},
		Durations: []time.Duration{time.Second},
		Windows:   nil, // unset: single zero value
	}
	var keys []string
	for _, c := range spec.Cells() {
		keys = append(keys, c.Key())
	}
	want := []string{
		"a seed=1 duration=1s",
		"a seed=2 duration=1s",
		"b seed=1 duration=1s",
		"b seed=2 duration=1s",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("Cells() order = %v, want %v", keys, want)
	}
}

// TestSpecCellsDefaults: a spec with only IDs expands to one cell per ID
// with every knob unset, and the key omits unset knobs.
func TestSpecCellsDefaults(t *testing.T) {
	spec := &Spec{IDs: []string{"failover"}}
	cells := spec.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	c := cells[0]
	if c.Seed != 0 || c.Duration != 0 || c.Window != 0 {
		t.Errorf("unset knobs not zero: %+v", c)
	}
	if c.Key() != "failover" {
		t.Errorf("Key() = %q, want bare ID for unset knobs", c.Key())
	}
}
