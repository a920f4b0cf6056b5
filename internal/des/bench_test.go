package des

import (
	"math/rand"
	"testing"
	"time"
)

// countEvent is the cheapest possible Event: one integer add.
type countEvent struct{ n int }

func (e *countEvent) Fire() { e.n++ }

// BenchmarkScheduleStep covers the engine's //rstorm:hotpath functions
// end to end — ScheduleEvent → push/link, Step → pop/redistribute → Fire —
// against 1024 standing events a millisecond apart, so events cascade
// through many buckets on their way down to bucket 0.
func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine()
	ev := &countEvent{}
	for i := 0; i < 1024; i++ {
		e.ScheduleEvent(time.Duration(i)*time.Millisecond, ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(time.Duration(i%1024)*time.Millisecond, ev)
		e.Step()
	}
}

// BenchmarkScheduleStepSameTime is BenchmarkScheduleStep for events due
// now: ScheduleEvent(0) appends to bucket 0 and Step takes its head, with
// the same 1024 standing future events in higher buckets.
func BenchmarkScheduleStepSameTime(b *testing.B) {
	e := NewEngine()
	ev := &countEvent{}
	for i := 0; i < 1024; i++ {
		e.ScheduleEvent(time.Duration(i+1)*time.Millisecond, ev)
	}
	e.ScheduleEvent(0, ev) // grow the slab once, outside the timed region
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(0, ev)
		e.Step()
	}
}

// BenchmarkScheduleStepDelayMix is BenchmarkScheduleStep on the event mix
// paper-chain's engine sees: 61 standing events, 47% of steps due now, and
// the rest 200 µs (42%), 16 µs (26%), 500 µs (26%) or 1 µs (5%) away.
// BenchmarkScheduleStep's population is 17 times larger and evenly spread,
// and the simulator's tuple-path benchmarks keep about three events
// queued, so neither shows what a paper-chain step costs.
func BenchmarkScheduleStepDelayMix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	future := func() time.Duration {
		switch u := rng.Intn(99); {
		case u < 42:
			return 200 * time.Microsecond
		case u < 68:
			return 16 * time.Microsecond
		case u < 94:
			return 500 * time.Microsecond
		}
		return time.Microsecond
	}
	var delays [1024]time.Duration
	for i := range delays {
		if rng.Intn(100) >= 47 {
			delays[i] = future()
		}
	}
	e := NewEngine()
	ev := &countEvent{}
	for i := 0; i < 61; i++ {
		e.ScheduleEvent(future(), ev)
	}
	e.ScheduleEvent(0, ev) // grow the slab once, outside the timed region
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(delays[i%len(delays)], ev)
		e.Step()
	}
}
