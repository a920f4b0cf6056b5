// Package des is a deterministic discrete-event simulation kernel: a
// priority queue of timestamped events and a virtual clock. Events at
// equal timestamps fire in scheduling order, so a simulation driven by a
// seeded RNG is fully reproducible.
//
// There is one event representation: a value implementing Event, queued
// by ScheduleEvent or ScheduleEventAt. The queue has two tiers holding
// the same event values. An event due later than the current instant
// goes on a hand-rolled 4-ary min-heap stored inline in a single slice:
// no per-event boxing, no interface round-trips through container/heap,
// and no pointer chasing during sift operations. An event due at the
// current instant (zero or negative delay, or a past absolute time) skips
// the heap and is appended to a FIFO ring. Both tiers recycle their slots
// in place, so once each has grown to the simulation's peak population,
// scheduling is allocation-free.
//
// The tiers are one (at, seq) order because of a clock invariant: every
// event in the FIFO is due at exactly the current time, and the clock
// never moves past a pending event, so it cannot leave one behind in the
// FIFO. The heap may also hold events at the current time, but those were
// scheduled before the clock reached it, so their seq is smaller than any
// FIFO entry's. Taking the FIFO head unless the heap's top is earlier by
// (at, seq) therefore fires events in exactly the order one heap would.
package des

import (
	"time"
)

// Event is a simulation event; Fire runs when its time comes. The Engine
// stores only the interface value, so a caller that pools its event
// records (as the simulator does for every tuple hop) keeps steady-state
// dispatch allocation-free.
type Event interface {
	Fire()
}

// Engine owns the virtual clock and the pending events: a heap of future
// events and a FIFO of events due now (see the package doc for why the
// two fire in one (at, seq) order). It is not safe for concurrent use: a
// simulation runs single-threaded, which is what makes it deterministic.
type Engine struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
	due   dueQueue
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue.events) + e.due.n }

// ScheduleEvent queues an event after delay. Negative delays are
// clamped to zero. The Engine holds only the interface value; callers own
// the event's storage and may pool it once Fire has run.
//
//rstorm:hotpath
func (e *Engine) ScheduleEvent(delay time.Duration, ev Event) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleEventAt(e.now+delay, ev)
}

// ScheduleEventAt queues an event at an absolute virtual time. Times
// in the past are clamped to the current time, and an event due now
// joins the FIFO instead of the heap.
//
//rstorm:hotpath
func (e *Engine) ScheduleEventAt(at time.Duration, ev Event) {
	e.seq++
	if at <= e.now {
		e.due.push(event{at: e.now, seq: e.seq, ev: ev})
		return
	}
	e.queue.push(event{at: at, seq: e.seq, ev: ev})
}

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
//
//rstorm:hotpath
func (e *Engine) Step() bool {
	if e.Pending() == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.ev.Fire()
	return true
}

// pop removes the earliest pending event by (at, seq): the FIFO head
// unless the heap's top is due first. At least one event must be pending.
//
//rstorm:hotpath
func (e *Engine) pop() event {
	if e.due.n > 0 && (len(e.queue.events) == 0 || e.due.buf[e.due.head].before(&e.queue.events[0])) {
		return e.due.pop()
	}
	return e.queue.pop()
}

// RunUntil processes events with timestamps <= until, then advances the
// clock to until. Events scheduled during processing are processed too if
// they fall within the horizon. It returns the number of events processed.
func (e *Engine) RunUntil(until time.Duration) int {
	processed := 0
	for at, ok := e.PeekTime(); ok && at <= until; at, ok = e.PeekTime() {
		e.Step()
		processed++
	}
	if e.now < until {
		e.now = until
	}
	return processed
}

// PeekTime returns the timestamp of the earliest pending event without
// firing it, and whether any event is pending. A conservative parallel
// loop uses it to pick the next safe window without disturbing the queue.
//
//rstorm:hotpath
func (e *Engine) PeekTime() (time.Duration, bool) {
	if e.due.n > 0 {
		return e.now, true
	}
	if len(e.queue.events) == 0 {
		return 0, false
	}
	return e.queue.events[0].at, true
}

// AdvanceTo processes events with timestamps strictly before horizon, then
// advances the clock to horizon. It is the half-open-window complement of
// RunUntil (which is inclusive): a sharded engine advancing all shards
// through the safe window [now, horizon) leaves events at exactly horizon
// pending, so cross-shard messages timestamped at the window boundary are
// merged before any shard processes past it. Events scheduled during
// processing are processed too if they fall inside the window. Returns the
// number of events processed. A horizon at or before the current clock
// processes nothing and leaves the clock unchanged.
func (e *Engine) AdvanceTo(horizon time.Duration) int {
	processed := 0
	for at, ok := e.PeekTime(); ok && at < horizon; at, ok = e.PeekTime() {
		e.Step()
		processed++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return processed
}

// PendingEvent is one queued event surrendered by TakePending.
type PendingEvent struct {
	At time.Duration
	Ev Event
}

// TakePending removes and returns every queued event in (time, scheduling)
// order, leaving both tiers empty and the clock unchanged. A sharded
// simulator uses it between epochs to re-home pending events after task
// placements change; rescheduling the returned events in slice order onto
// any Engine preserves their relative firing order.
func (e *Engine) TakePending() []PendingEvent {
	out := make([]PendingEvent, 0, e.Pending())
	for e.Pending() > 0 {
		ev := e.pop()
		out = append(out, PendingEvent{At: ev.at, Ev: ev.ev})
	}
	return out
}

// event is one queued Event and its (at, seq) key, stored by value in
// either tier: 32 bytes on 64-bit platforms.
type event struct {
	at  time.Duration
	seq uint64
	ev  Event
}

// before reports strict heap order. seq strictly increases across
// ScheduleEvent* calls, so (at, seq) is a total order and equal-timestamp
// events pop in exact FIFO scheduling order regardless of heap shape.
//
//rstorm:hotpath
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of event values ordered by (at, seq).
// 4-ary beats binary here: sift-down depth halves. The four children of a
// node span 128 B, but they start one 32 B slot into a 64 B-aligned block,
// so comparing them touches three cache lines, not two.
type eventQueue struct {
	events []event
}

//rstorm:hotpath
func (q *eventQueue) push(ev event) {
	q.events = append(q.events, ev)
	q.siftUp(len(q.events) - 1)
}

//rstorm:hotpath
func (q *eventQueue) pop() event {
	es := q.events
	top := es[0]
	n := len(es) - 1
	es[0] = es[n]
	es[n] = event{} // release the Event reference; capacity is retained
	q.events = es[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

//rstorm:hotpath
func (q *eventQueue) siftUp(i int) {
	es := q.events
	ev := es[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&es[parent]) {
			break
		}
		es[i] = es[parent]
		i = parent
	}
	es[i] = ev
}

//rstorm:hotpath
func (q *eventQueue) siftDown(i int) {
	es := q.events
	n := len(es)
	ev := es[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if es[c].before(&es[best]) {
				best = c
			}
		}
		if !es[best].before(&ev) {
			break
		}
		es[i] = es[best]
		i = best
	}
	es[i] = ev
}

// dueQueue is the FIFO tier: events due at the current instant, in
// scheduling order, in a ring buffer whose length is zero or a power of
// two. It doubles when full, so its length tracks the peak number of due
// events pending at once, not how many fire at one instant. It repeats
// the simulator's and pardes' rings because des sits below both.
type dueQueue struct {
	buf  []event
	head int
	n    int
}

//rstorm:hotpath
func (q *dueQueue) push(ev event) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ev
	q.n++
}

//rstorm:hotpath
func (q *dueQueue) pop() event {
	ev := q.buf[q.head]
	q.buf[q.head] = event{} // release the Event reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ev
}

// grow doubles the ring, relinearizing FIFO order from head.
func (q *dueQueue) grow() {
	buf := make([]event, max(2*len(q.buf), 8))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
