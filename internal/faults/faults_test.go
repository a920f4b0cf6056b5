package faults

import (
	"math"
	"strings"
	"testing"
	"time"

	"rstorm/internal/cluster"
)

func TestParseEventForms(t *testing.T) {
	cases := []struct {
		spec string
		want Fault
	}{
		{"node-0-3@20s", Fault{Kind: Crash, Node: "node-0-3", At: 20 * time.Second}},
		{"crash:node-0-3@20s", Fault{Kind: Crash, Node: "node-0-3", At: 20 * time.Second}},
		{"recover:node-0-3@40s", Fault{Kind: Recover, Node: "node-0-3", At: 40 * time.Second}},
		{"slow:node-0-5@10s:2.5", Fault{Kind: Slow, Node: "node-0-5", At: 10 * time.Second, Factor: 2.5}},
		{"slow:node-1-0@1.5s:4", Fault{Kind: Slow, Node: "node-1-0", At: 1500 * time.Millisecond, Factor: 4}},
		{"crash:node-0-0@0s", Fault{Kind: Crash, Node: "node-0-0", At: 0}},
	}
	for _, c := range cases {
		got, err := ParseEvent(c.spec)
		if err != nil {
			t.Fatalf("ParseEvent(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Errorf("ParseEvent(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseEventErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"node-0-3",              // no @time
		"@20s",                  // no node
		"node-0-3@soon",         // bad duration
		"node-0-3@-5s",          // negative time
		"slow:node-0-3@20s",     // slow without factor
		"slow:node-0-3@20s:1.0", // factor must exceed 1
		"slow:node-0-3@20s:x",   // non-numeric factor
		"slow:node-0-3@20s:NaN", // NaN passes "<= 1" unnoticed
		"slow:node-0-3@20s:Inf", // so does +Inf
		"slow:node-0-3@20s:-Inf",
	}
	for _, spec := range cases {
		if _, err := ParseEvent(spec); err == nil {
			t.Errorf("ParseEvent(%q) succeeded, want error", spec)
		}
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	spec := "crash:node-0-3@20s,recover:node-0-3@40s,slow:node-0-5@10s:2.5"
	sched, err := ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if len(sched) != 3 {
		t.Fatalf("got %d events, want 3", len(sched))
	}
	if got := sched.String(); got != spec {
		t.Errorf("round-trip = %q, want %q", got, spec)
	}
	reparsed, err := ParseSchedule(sched.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	for i := range sched {
		if reparsed[i] != sched[i] {
			t.Errorf("event %d: reparsed %+v != %+v", i, reparsed[i], sched[i])
		}
	}
}

func TestParseScheduleWhitespaceAndEmpty(t *testing.T) {
	sched, err := ParseSchedule("  ")
	if err != nil || sched != nil {
		t.Fatalf("blank spec: got %v, %v; want nil, nil", sched, err)
	}
	sched, err = ParseSchedule(" node-0-1@5s , , crash:node-0-2@6s ")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if len(sched) != 2 {
		t.Fatalf("got %d events, want 2", len(sched))
	}
	if sched[0].Node != "node-0-1" || sched[1].Node != "node-0-2" {
		t.Errorf("unexpected nodes: %v", sched)
	}
}

func TestParseSchedulePropagatesError(t *testing.T) {
	_, err := ParseSchedule("node-0-1@5s,bogus")
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want error mentioning bad event, got %v", err)
	}
}

func TestScheduleSortedStable(t *testing.T) {
	sched := Schedule{
		{Kind: Recover, Node: "b", At: 30 * time.Second},
		{Kind: Crash, Node: "a", At: 10 * time.Second},
		{Kind: Slow, Node: "c", At: 10 * time.Second, Factor: 2},
	}
	sorted := sched.Sorted()
	if sorted[0].Node != "a" || sorted[1].Node != "c" || sorted[2].Node != "b" {
		t.Errorf("sort order wrong: %v", sorted)
	}
	// Original untouched.
	if sched[0].Node != "b" {
		t.Errorf("Sorted mutated the receiver")
	}
}

func TestScheduleValidateSequencing(t *testing.T) {
	ok := Schedule{
		{Kind: Crash, Node: "a", At: 10 * time.Second},
		{Kind: Recover, Node: "a", At: 20 * time.Second},
		{Kind: Crash, Node: "a", At: 30 * time.Second},
		{Kind: Slow, Node: "b", At: 5 * time.Second, Factor: 2},
		{Kind: Recover, Node: "b", At: 15 * time.Second},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}

	doubleCrash := Schedule{
		{Kind: Crash, Node: "a", At: 10 * time.Second},
		{Kind: Crash, Node: "a", At: 20 * time.Second},
	}
	if err := doubleCrash.Validate(); err == nil {
		t.Errorf("double crash accepted")
	}

	orphanRecover := Schedule{
		{Kind: Recover, Node: "a", At: 10 * time.Second},
	}
	if err := orphanRecover.Validate(); err == nil {
		t.Errorf("recover before any fault accepted")
	}

	badEvent := Schedule{{Kind: Slow, Node: "a", At: time.Second, Factor: 0.5}}
	if err := badEvent.Validate(); err == nil {
		t.Errorf("invalid event accepted")
	}
}

func TestFaultValidate(t *testing.T) {
	if err := (Fault{Kind: Crash, Node: "n", At: 0}).Validate(); err != nil {
		t.Errorf("valid crash rejected: %v", err)
	}
	if err := (Fault{Kind: Crash, At: 0}).Validate(); err == nil {
		t.Errorf("empty node accepted")
	}
	if err := (Fault{Kind: Kind(9), Node: "n"}).Validate(); err == nil {
		t.Errorf("unknown kind accepted")
	}
	if err := (Fault{Kind: Crash, Node: "n", At: -time.Second}).Validate(); err == nil {
		t.Errorf("negative time accepted")
	}
	for _, factor := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, 0.5} {
		if err := (Fault{Kind: Slow, Node: "n", Factor: factor}).Validate(); err == nil {
			t.Errorf("slow factor %g accepted", factor)
		}
	}
}

func TestKindString(t *testing.T) {
	if Crash.String() != "crash" || Recover.String() != "recover" || Slow.String() != "slow" {
		t.Errorf("kind strings wrong: %v %v %v", Crash, Recover, Slow)
	}
	if got := Kind(7).String(); got != "Kind(7)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

type recordingInjector struct {
	got  []Fault
	fail bool
}

func (r *recordingInjector) InjectFault(f Fault) error {
	if r.fail {
		return &timeErr{}
	}
	r.got = append(r.got, f)
	return nil
}

type timeErr struct{}

func (*timeErr) Error() string { return "node is in the past" }

func TestScheduleApply(t *testing.T) {
	sched := Schedule{
		{Kind: Recover, Node: "a", At: 30 * time.Second},
		{Kind: Crash, Node: "a", At: 10 * time.Second},
	}
	inj := &recordingInjector{}
	if err := sched.Apply(inj); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(inj.got) != 2 || inj.got[0].Kind != Crash || inj.got[1].Kind != Recover {
		t.Errorf("events not applied in time order: %v", inj.got)
	}

	if err := sched.Apply(&recordingInjector{fail: true}); err == nil {
		t.Errorf("injector error not propagated")
	}

	bad := Schedule{{Kind: Recover, Node: cluster.NodeID("a"), At: time.Second}}
	if err := bad.Apply(inj); err == nil {
		t.Errorf("invalid schedule applied")
	}
}
