package des

import (
	"testing"
	"time"
)

// countEvent is the cheapest possible Event: one integer add.
type countEvent struct{ n int }

func (e *countEvent) Fire() { e.n++ }

// BenchmarkScheduleStep covers the engine's //rstorm:hotpath functions
// end to end — ScheduleEvent → push/siftUp, Step → pop/siftDown/before →
// Fire — against a standing event population, so sift depth matches a
// loaded simulation rather than an empty heap.
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
// now: ScheduleEvent(0) → the FIFO's push, Step → pop against the heap's
// top, with the same 1024 standing future events on the heap.
func BenchmarkScheduleStepSameTime(b *testing.B) {
	e := NewEngine()
	ev := &countEvent{}
	for i := 0; i < 1024; i++ {
		e.ScheduleEvent(time.Duration(i+1)*time.Millisecond, ev)
	}
	e.ScheduleEvent(0, ev) // grow the FIFO once, outside the timed region
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleEvent(0, ev)
		e.Step()
	}
}
