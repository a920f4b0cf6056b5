package pardes

import (
	"runtime"
	"testing"
	"time"

	"rstorm/internal/des"
)

// countingLane records every horizon it was advanced to.
type countingLane struct {
	horizons []time.Duration
	next     time.Duration
	hasNext  bool
}

func (l *countingLane) PeekTime() (time.Duration, bool) { return l.next, l.hasNext }
func (l *countingLane) AdvanceTo(h time.Duration) int {
	l.horizons = append(l.horizons, h)
	return 0
}

func TestCoordinatorAdvancesEveryLaneEachWindow(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		lanes := make([]Lane, 7)
		counting := make([]*countingLane, 7)
		for i := range lanes {
			counting[i] = &countingLane{}
			lanes[i] = counting[i]
		}
		c := NewCoordinator(lanes, workers)
		windows := []time.Duration{time.Second, 2 * time.Second, 5 * time.Second}
		for _, h := range windows {
			c.Advance(h)
		}
		c.Stop()
		c.Stop() // idempotent
		for i, l := range counting {
			if len(l.horizons) != len(windows) {
				t.Fatalf("workers=%d lane %d advanced %d times, want %d",
					workers, i, len(l.horizons), len(windows))
			}
			for j, h := range windows {
				if l.horizons[j] != h {
					t.Fatalf("workers=%d lane %d window %d horizon %v, want %v",
						workers, i, j, l.horizons[j], h)
				}
			}
		}
	}
}

// TestCoordinatorStopBeforeAdvance stops coordinators before their first
// window. Stop clears the coordinator's start channels, possibly before a
// worker goroutine has first run, so a worker must not read them from the
// coordinator; every worker must still exit.
func TestCoordinatorStopBeforeAdvance(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		lanes := make([]Lane, 8)
		for j := range lanes {
			lanes[j] = &countingLane{}
		}
		NewCoordinator(lanes, 4).Stop()
	}
	for polls := 0; runtime.NumGoroutine() > base; polls++ {
		if polls == 10000 {
			t.Fatalf("%d goroutines 10 s after stopping every coordinator, want at most %d",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoordinatorNextEvent(t *testing.T) {
	lanes := []Lane{
		&countingLane{next: 3 * time.Second, hasNext: true},
		&countingLane{},
		&countingLane{next: time.Second, hasNext: true},
	}
	c := NewCoordinator(lanes, 1)
	if at, ok := c.NextEvent(); !ok || at != time.Second {
		t.Fatalf("NextEvent = %v, %v, want 1s, true", at, ok)
	}
	empty := NewCoordinator([]Lane{&countingLane{}}, 1)
	if _, ok := empty.NextEvent(); ok {
		t.Fatal("NextEvent on idle lanes reported an event")
	}
}

// tickEvent counts its firings and reschedules itself every period on its
// engine, keeping one event pending per lane forever.
type tickEvent struct {
	eng    *des.Engine
	period time.Duration
	count  *int
}

func (e *tickEvent) Fire() {
	*e.count++
	e.eng.ScheduleEvent(e.period, e)
}

// TestCoordinatorWindowedEnginesMatchSerial drives real des.Engines with
// self-rescheduling events through the coordinator at several worker
// counts: each lane's event count and final clock must match a serial
// single-engine run of the same schedule, for every pool width.
func TestCoordinatorWindowedEnginesMatchSerial(t *testing.T) {
	const lanes = 8
	horizon := 500 * time.Millisecond
	window := 2 * time.Millisecond
	run := func(workers int) []int {
		engines := make([]Lane, lanes)
		counts := make([]int, lanes)
		for i := range engines {
			e := des.NewEngine()
			period := time.Duration(100+13*i) * time.Microsecond
			e.ScheduleEvent(period, &tickEvent{eng: e, period: period, count: &counts[i]})
			engines[i] = e
		}
		c := NewCoordinator(engines, workers)
		for now := time.Duration(0); now < horizon; now += window {
			h := now + window
			if h > horizon {
				h = horizon
			}
			c.Advance(h)
		}
		c.Stop()
		return counts
	}
	want := run(1)
	for i, period := 0, 100*time.Microsecond; i < 1; i++ {
		if got := int(horizon / period); want[0] < got-1 || want[0] > got+1 {
			t.Fatalf("lane 0 ticked %d times, want ~%d", want[0], got)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d lane %d ticked %d, serial %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRingFIFOAndReuse(t *testing.T) {
	var r Ring[int]
	if r.Len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	// Interleave pushes and pops across several wrap-arounds.
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3+round%5; i++ {
			r.Push(next)
			next++
		}
		for r.Len() > 2 {
			if got := r.Pop(); got != expect {
				t.Fatalf("Pop = %d, want %d", got, expect)
			}
			expect++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != expect {
			t.Fatalf("drain Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d of %d", expect, next)
	}
	// Growth relinearizes from any head position, including contents
	// that wrap past the end of the buffer.
	for off := 0; off < 20; off++ {
		var w Ring[int]
		for i := 0; i < off; i++ {
			w.Push(i)
			w.Pop()
		}
		for i := 0; i < 40; i++ {
			w.Push(i)
		}
		for i := 0; i < 40; i++ {
			if got := w.Pop(); got != i {
				t.Fatalf("head offset %d: Pop = %d, want %d", off, got, i)
			}
		}
	}
}

// BenchmarkRingSteadyState holds the inbox ring's push/drain cycle at
// 0 allocs/op once capacity has grown: the ring is the cross-shard
// hand-off path, paid per remote tuple per window.
func BenchmarkRingSteadyState(b *testing.B) {
	b.ReportAllocs()
	var r Ring[[2]uint64]
	for i := 0; i < 256; i++ {
		r.Push([2]uint64{})
	}
	for r.Len() > 0 {
		r.Pop()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			r.Push([2]uint64{uint64(i), uint64(j)})
		}
		for r.Len() > 0 {
			r.Pop()
		}
	}
}

// BenchmarkCoordinatorWindow measures the per-window barrier cost with
// busy des.Engine lanes — the overhead the lookahead window must
// amortize. Inline (workers=1) mode must be allocation-free per window;
// pooled mode pays only the channel hops.
func BenchmarkCoordinatorWindow(b *testing.B) {
	for _, workers := range []int{1, 4} {
		name := "workers=1"
		if workers == 4 {
			name = "workers=4"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			const lanes = 4
			engines := make([]Lane, lanes)
			for i := range engines {
				e := des.NewEngine()
				period := time.Duration(50+7*i) * time.Microsecond
				e.ScheduleEvent(period, &tickEvent{eng: e, period: period, count: new(int)})
				engines[i] = e
			}
			c := NewCoordinator(engines, workers)
			defer c.Stop()
			window := time.Millisecond
			now := time.Duration(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += window
				c.Advance(now)
			}
		})
	}
}
