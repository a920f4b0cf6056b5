package des

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// eventFunc adapts a func to Event for tests.
type eventFunc func()

func (f eventFunc) Fire() { f() }

// recordingEvent is a pointer-backed Event that logs its id when fired.
type recordingEvent struct {
	id  int
	out *[]int
}

func (e *recordingEvent) Fire() { *e.out = append(*e.out, e.id) }

// drain steps the engine until its queue is empty, returning the number
// of events processed.
func drain(e *Engine) int {
	processed := 0
	for e.Step() {
		processed++
	}
	return processed
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleEvent(3*time.Second, eventFunc(func() { order = append(order, 3) }))
	e.ScheduleEvent(1*time.Second, eventFunc(func() { order = append(order, 1) }))
	e.ScheduleEvent(2*time.Second, eventFunc(func() { order = append(order, 2) }))
	if n := e.RunUntil(10 * time.Second); n != 3 {
		t.Fatalf("processed %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.ScheduleEvent(time.Second, eventFunc(func() { order = append(order, i) }))
	}
	drain(e)
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.ScheduleEvent(time.Second, eventFunc(func() {
		fired = append(fired, e.Now())
		e.ScheduleEvent(time.Second, eventFunc(func() {
			fired = append(fired, e.Now())
		}))
	}))
	e.RunUntil(5 * time.Second)
	if len(fired) != 2 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntilHorizonExcludesLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := false
	e.ScheduleEvent(10*time.Second, eventFunc(func() { ran = true }))
	e.RunUntil(5 * time.Second)
	if ran {
		t.Fatal("event past horizon ran")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now = %v", e.Now())
	}
	e.RunUntil(15 * time.Second)
	if !ran {
		t.Fatal("event within horizon did not run")
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(time.Second, eventFunc(func() {
		e.ScheduleEvent(-time.Hour, eventFunc(func() {
			if e.Now() != time.Second {
				t.Errorf("clamped event at %v, want 1s", e.Now())
			}
		}))
	}))
	drain(e)
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.ScheduleEvent(2*time.Second, eventFunc(func() {
		e.ScheduleEventAt(time.Second, eventFunc(func() {
			if e.Now() != 2*time.Second {
				t.Errorf("past event at %v, want 2s", e.Now())
			}
		}))
	}))
	drain(e)
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	if e.Now() != 0 {
		t.Fatalf("Step on empty queue moved the clock to %v", e.Now())
	}
}

// TestEventSlotSize pins the heap slot at 32 bytes on 64-bit platforms:
// every push and sift moves whole slots, so a field added to event is paid
// for on every tuple hop.
func TestEventSlotSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot size is pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d, want 32", got)
	}
}

func TestTypedEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleEvent(3*time.Second, &recordingEvent{id: 3, out: &order})
	e.ScheduleEvent(1*time.Second, &recordingEvent{id: 1, out: &order})
	e.ScheduleEvent(2*time.Second, eventFunc(func() { order = append(order, 2) }))
	drain(e)
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestTypedEventsInterleaveFIFOWithClosures: the queue orders events by
// (time, scheduling order) alone, whatever concrete type implements Event
// — pointer records and closure adapters interleave in exact FIFO order.
func TestTypedEventsInterleaveFIFOWithClosures(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			e.ScheduleEvent(time.Second, &recordingEvent{id: i, out: &order})
		} else {
			i := i
			e.ScheduleEvent(time.Second, eventFunc(func() { order = append(order, i) }))
		}
	}
	drain(e)
	for i := 0; i < 6; i++ {
		if order[i] != i {
			t.Fatalf("equal-timestamp record/closure events not FIFO: %v", order)
		}
	}
}

// TestHeapFIFOUnderRandomInterleaving is the property test for the 4-ary
// heap: under randomized interleaved schedule/Step sequences with heavily
// colliding timestamps, events sharing a timestamp must fire in exact
// scheduling order, and timestamps must be globally non-decreasing.
func TestHeapFIFOUnderRandomInterleaving(t *testing.T) {
	type fired struct {
		at  time.Duration
		seq int
	}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		e := NewEngine()
		var log []fired
		seq := 0
		schedule := func() {
			// Few distinct timestamps ahead of now -> many collisions.
			delay := time.Duration(rng.Intn(4)) * time.Millisecond
			at := e.Now() + delay
			id := seq
			seq++
			ev := eventFunc(func() { log = append(log, fired{at: at, seq: id}) })
			if rng.Intn(2) == 0 {
				e.ScheduleEventAt(at, ev)
			} else {
				e.ScheduleEvent(delay, ev)
			}
		}
		for op := 0; op < 400; op++ {
			if rng.Intn(3) == 0 {
				e.Step()
			} else {
				schedule()
			}
		}
		drain(e)
		if len(log) != seq {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(log), seq)
		}
		for i := 1; i < len(log); i++ {
			prev, cur := log[i-1], log[i]
			if cur.at < prev.at {
				t.Fatalf("trial %d: time went backwards: %v after %v", trial, cur.at, prev.at)
			}
			if cur.at == prev.at && cur.seq < prev.seq {
				t.Fatalf("trial %d: equal-timestamp events out of FIFO order: seq %d fired after %d at %v",
					trial, prev.seq, cur.seq, cur.at)
			}
		}
	}
}

func TestPeekTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported an event")
	}
	e.ScheduleEvent(3*time.Second, eventFunc(func() {}))
	e.ScheduleEvent(time.Second, eventFunc(func() {}))
	if at, ok := e.PeekTime(); !ok || at != time.Second {
		t.Fatalf("PeekTime = %v, %v, want 1s, true", at, ok)
	}
	// Peeking must not disturb the queue.
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after peek, want 2", e.Pending())
	}
	drain(e)
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime after drain reported an event")
	}
}

func TestAdvanceToExcludesHorizonEvents(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		e.ScheduleEventAt(at, eventFunc(func() { fired = append(fired, at) }))
	}
	if n := e.AdvanceTo(2 * time.Second); n != 1 {
		t.Fatalf("processed %d events, want 1 (event at the horizon must stay pending)", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	// The boundary event fires in the next window.
	if n := e.AdvanceTo(4 * time.Second); n != 2 {
		t.Fatalf("second window processed %d, want 2", n)
	}
	if len(fired) != 3 || fired[0] != time.Second || fired[1] != 2*time.Second {
		t.Fatalf("fired = %v", fired)
	}
	// A horizon in the past is a no-op that leaves the clock alone.
	if n := e.AdvanceTo(time.Second); n != 0 || e.Now() != 4*time.Second {
		t.Fatalf("past horizon: processed %d, Now %v", n, e.Now())
	}
}

// TestQuickAdvanceToWindowsMatchRunUntil is the FIFO-preservation property
// for the sharded loop's primitive: chopping a schedule into half-open
// AdvanceTo windows (plus a final inclusive RunUntil at the horizon) must
// fire exactly the same events in exactly the same order as one monolithic
// RunUntil, including equal-timestamp collisions.
func TestQuickAdvanceToWindowsMatchRunUntil(t *testing.T) {
	f := func(raw []uint8, windowRaw uint8) bool {
		horizon := 200 * time.Millisecond
		build := func() (*Engine, *[]int) {
			e := NewEngine()
			var order []int
			for i, r := range raw {
				// Few distinct timestamps -> many FIFO collisions.
				at := time.Duration(r%16) * 10 * time.Millisecond
				i := i
				e.ScheduleEventAt(at, eventFunc(func() { order = append(order, i) }))
			}
			return e, &order
		}
		mono, monoOrder := build()
		mono.RunUntil(horizon)

		window := time.Duration(windowRaw%32+1) * 7 * time.Millisecond
		sharded, shardedOrder := build()
		for sharded.Now() < horizon {
			h := sharded.Now() + window
			if h > horizon {
				h = horizon
			}
			sharded.AdvanceTo(h)
		}
		sharded.RunUntil(horizon) // boundary events at the final horizon
		if len(*monoOrder) != len(*shardedOrder) {
			return false
		}
		for i := range *monoOrder {
			if (*monoOrder)[i] != (*shardedOrder)[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTakePendingPreservesOrder: TakePending surrenders events in (time,
// scheduling) order, so replaying them in slice order onto a fresh engine
// reproduces the original firing order — the re-homing invariant the
// sharded simulator relies on between epochs.
func TestTakePendingPreservesOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		at := time.Duration(i%4) * time.Second // heavy timestamp collisions
		if i%2 == 0 {
			e.ScheduleEventAt(at, &recordingEvent{id: i, out: &order})
		} else {
			e.ScheduleEventAt(at, eventFunc(func() { order = append(order, i) }))
		}
	}
	taken := e.TakePending()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after TakePending", e.Pending())
	}
	if len(taken) != 20 {
		t.Fatalf("took %d events, want 20", len(taken))
	}
	for i := 1; i < len(taken); i++ {
		if taken[i].At < taken[i-1].At {
			t.Fatalf("TakePending out of time order at %d: %v after %v", i, taken[i].At, taken[i-1].At)
		}
	}
	fresh := NewEngine()
	for _, pe := range taken {
		fresh.ScheduleEventAt(pe.At, pe.Ev)
	}
	drain(fresh)
	want := []int{0, 4, 8, 12, 16, 1, 5, 9, 13, 17, 2, 6, 10, 14, 18, 3, 7, 11, 15, 19}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("replayed order = %v, want %v", order, want)
		}
	}
}

func TestQuickClockNeverGoesBackwards(t *testing.T) {
	f := func(delays []int16) bool {
		e := NewEngine()
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			delay := time.Duration(d) * time.Millisecond
			e.ScheduleEvent(delay, eventFunc(func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			}))
		}
		drain(e)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRunUntilProcessesExactlyHorizonEvents(t *testing.T) {
	f := func(raw []uint8) bool {
		e := NewEngine()
		within := 0
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			if d <= 100*time.Millisecond {
				within++
			}
			e.ScheduleEvent(d, eventFunc(func() {}))
		}
		return e.RunUntil(100*time.Millisecond) == within
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
