package faults

import (
	"math"
	"testing"
)

// FuzzParseSchedule checks that the schedule parser never panics, that
// every accepted schedule renders back through String to an equal
// schedule, and that every accepted slow factor is finite and > 1.
func FuzzParseSchedule(f *testing.F) {
	seeds := []string{
		"",
		"node-0-3@20s",
		"crash:node-0-3@20s,recover:node-0-3@40s,slow:node-0-5@10s:2.5",
		" node-0-1@5s , , crash:node-0-2@6s ",
		"slow:node-0-0@2s:NaN",
		"slow:node-0-0@2s:+Inf",
		"slow:node-0-0@2s:1e308",
		"slow:node-0-0@2s:0x1p1",
		"slow:a@1h0m0.000000001s:1.0000000000000002",
		"recover:crash:x@0s",
		"crash:slow:x@1ms",
		"x:y@1us",
		"node@-1s",
		"@1s",
		"slow:@1s:2",
		"a@b@1s",
		"slow:n@1s:2:3",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sched, err := ParseSchedule(spec)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, fault := range sched {
			if fault.Kind == Slow && (math.IsNaN(fault.Factor) || math.IsInf(fault.Factor, 0) || fault.Factor <= 1) {
				t.Fatalf("ParseSchedule(%q) accepted slow factor %g", spec, fault.Factor)
			}
		}
		text := sched.String()
		again, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) = %v, but its rendering %q does not parse: %v", spec, sched, text, err)
		}
		if len(again) != len(sched) {
			t.Fatalf("round trip of %q: %d events, want %d", spec, len(again), len(sched))
		}
		for i := range sched {
			if again[i] != sched[i] {
				t.Fatalf("round trip of %q: event %d = %+v, want %+v", spec, i, again[i], sched[i])
			}
		}
	})
}
