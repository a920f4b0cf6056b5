// Package des is a deterministic discrete-event simulation kernel: a
// priority queue of timestamped events and a virtual clock. Events at
// equal timestamps fire in scheduling order, so a simulation driven by a
// seeded RNG is fully reproducible.
//
// There is one event representation: a value implementing Event, queued
// by ScheduleEvent or ScheduleEventAt. The queue is one monotone radix
// heap (Ahuja, Mehlhorn, Orlin and Tarjan, JACM 1990) keyed by the event's
// time, which serves because the clock never runs backwards. last is the
// key of the latest pop, and the invariant is last ≤ now ≤ every pending
// key. Bucket 0 holds the keys equal to last, which is where events due
// now land; bucket b ≥ 1 holds the keys whose highest bit differing from
// last is bit b-1. A push is O(1) and nothing is ever sifted. When bucket
// 0 runs dry, pop makes the lowest non-empty bucket's minimum the new last
// and relinks that bucket's events into lower buckets, so an event moves
// at most once per bit of its key, and only down.
//
// Every event lives in one slab of slots threaded into the buckets' FIFO
// lists and a free list, so scheduling allocates nothing once the slab has
// grown to the simulation's peak pending population, and a redistribution
// relinks slots without copying or growing anything.
//
// The order is exactly (time, scheduling order). Events with equal keys
// always share a bucket, each bucket is appended in scheduling order, and
// a redistribution walks its bucket in order into buckets that are empty,
// so equal-time events never overtake one another.
package des

import (
	"math"
	"math/bits"
	"time"
)

// Event is a simulation event; Fire runs when its time comes. The Engine
// stores only the interface value, so a caller that pools its event
// records (as the simulator does for every tuple hop) keeps steady-state
// dispatch allocation-free.
type Event interface {
	Fire()
}

// Engine owns the virtual clock and the pending events, held in one radix
// queue (see the package doc for its invariant). It is not safe for
// concurrent use: a simulation runs single-threaded, which is what makes
// it deterministic.
type Engine struct {
	now   time.Duration
	queue radixQueue
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.n }

// ScheduleEvent queues an event after delay. Negative delays are clamped
// to zero, and a delay past the largest time.Duration saturates there
// instead of wrapping. The Engine holds only the interface value; callers
// own the event's storage and may pool it once Fire has run.
//
//rstorm:hotpath
func (e *Engine) ScheduleEvent(delay time.Duration, ev Event) {
	at := e.now + delay
	if delay > math.MaxInt64-e.now {
		at = math.MaxInt64
	}
	e.ScheduleEventAt(at, ev)
}

// ScheduleEventAt queues an event at an absolute virtual time. Times in
// the past are clamped to the current time, so no key is ever below the
// clock.
//
//rstorm:hotpath
func (e *Engine) ScheduleEventAt(at time.Duration, ev Event) {
	e.queue.push(max(at, e.now), ev)
}

// Step runs the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
//
//rstorm:hotpath
func (e *Engine) Step() bool {
	if e.queue.n == 0 {
		return false
	}
	at, ev := e.queue.pop()
	e.now = at
	ev.Fire()
	return true
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
// firing it, and whether any event is pending. It is O(1): the lowest
// non-empty bucket's minimum. A conservative parallel loop uses it to pick
// the next safe window without disturbing the queue.
//
//rstorm:hotpath
func (e *Engine) PeekTime() (time.Duration, bool) {
	q := &e.queue
	if q.mask == 0 {
		return 0, false
	}
	return time.Duration(q.min[bits.TrailingZeros64(q.mask)&63]), true
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
// order, leaving the queue empty and the clock unchanged. Popping moved the
// queue's last key up to the latest event's time without firing anything,
// so last is rebased to the clock, where later pushes may land. A sharded
// simulator uses it between epochs to re-home pending events after task
// placements change; rescheduling the returned events in slice order onto
// any Engine preserves their relative firing order.
func (e *Engine) TakePending() []PendingEvent {
	out := make([]PendingEvent, 0, e.queue.n)
	for e.queue.n > 0 {
		at, ev := e.queue.pop()
		out = append(out, PendingEvent{At: at, Ev: ev})
	}
	e.queue.last = uint64(e.now)
	return out
}

// slot is one event in the slab: its time, its Event, and the index of the
// next slot in its bucket or in the free list. 32 bytes on 64-bit
// platforms.
type slot struct {
	at   time.Duration
	ev   Event
	next int32
}

// radixQueue is the monotone radix heap described in the package doc.
// Bucket b is non-empty iff bit b of mask is set; it then runs from
// head[b] to tail[b] through the slots' next links, and its least key is
// min[b]. A list ends at its tail, and the free list's length is
// len(slots) - n, so no index needs a nil value and the zero value is an
// empty queue.
type radixQueue struct {
	slots []slot
	free  int32 // head of the free list, when len(slots) > n
	n     int   // pending events
	last  uint64
	mask  uint64
	head  [64]int32
	tail  [64]int32
	min   [64]uint64
}

// push files an event at a time no earlier than last, reusing a free slot
// when there is one.
//
//rstorm:hotpath
func (q *radixQueue) push(at time.Duration, ev Event) {
	i := q.free
	if q.n < len(q.slots) {
		q.free = q.slots[i].next
	} else {
		i = int32(len(q.slots))
		q.slots = append(q.slots, slot{})
	}
	q.n++
	q.slots[i].at, q.slots[i].ev = at, ev
	q.link(i, uint64(at))
}

// link appends slot i, holding key k, to the tail of its bucket. Keys are
// below 1<<63, so the bucket index is at most 63; masking it with 63 says
// so to the compiler, which then drops the shift and bounds checks.
//
//rstorm:hotpath
func (q *radixQueue) link(i int32, k uint64) {
	b := bits.Len64(k^q.last) & 63
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		q.head[b], q.min[b] = i, k
	} else {
		q.slots[q.tail[b]].next = i
		q.min[b] = min(q.min[b], k)
	}
	q.tail[b] = i
}

// pop removes the earliest pending event by (time, scheduling order) and
// frees its slot. At least one event must be pending.
//
//rstorm:hotpath
func (q *radixQueue) pop() (time.Duration, Event) {
	if q.mask&1 == 0 {
		q.redistribute()
	}
	i := q.head[0]
	if i == q.tail[0] {
		q.mask &^= 1
	} else {
		q.head[0] = q.slots[i].next
	}
	s := &q.slots[i]
	at, ev := s.at, s.ev
	s.ev = nil // release the Event reference; the slot is retained
	s.next, q.free = q.free, i
	q.n--
	return at, ev
}

// redistribute empties the lowest non-empty bucket b into the buckets
// below it: the new last is the bucket's minimum, so every key in it now
// differs from last below bit b-1, and the minimum lands in bucket 0. The
// buckets below b are empty, so relinking in list order keeps each one in
// scheduling order.
//
//rstorm:hotpath
func (q *radixQueue) redistribute() {
	b := bits.TrailingZeros64(q.mask) & 63 // mask is not zero
	q.mask &^= 1 << b
	q.last = q.min[b]
	for i, end := q.head[b], q.tail[b]; ; {
		next := q.slots[i].next
		q.link(i, uint64(q.slots[i].at))
		if i == end {
			return
		}
		i = next
	}
}
