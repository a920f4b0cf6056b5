package des

import (
	"math/rand"
	"testing"
	"time"
)

// modelEntry is one pending event in the reference model.
type modelEntry struct {
	at  time.Duration
	seq uint64
	id  int
}

// refModel is the obviously-correct engine the radix queue must match:
// one unsorted list, searched linearly for the least (at, seq).
type refModel struct {
	now     time.Duration
	seq     uint64
	pending []modelEntry
}

func (m *refModel) schedule(at time.Duration, id int) {
	if at < m.now {
		at = m.now
	}
	m.seq++
	m.pending = append(m.pending, modelEntry{at: at, seq: m.seq, id: id})
}

func (m *refModel) minIndex() int {
	best := -1
	for i := range m.pending {
		p := &m.pending[i]
		if best < 0 || p.at < m.pending[best].at ||
			(p.at == m.pending[best].at && p.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (m *refModel) pop() modelEntry {
	i := m.minIndex()
	e := m.pending[i]
	m.pending = append(m.pending[:i], m.pending[i+1:]...)
	return e
}

// modelProgram runs one random program against an Engine and a refModel
// in lockstep. Every event the engine fires is checked against the
// model's next event at the moment it fires, so a firing-order, clock,
// PeekTime or Pending disagreement is reported where it happens.
type modelProgram struct {
	t      *testing.T
	trial  int
	rng    *rand.Rand
	eng    *Engine
	model  refModel
	nextID int
	fired  int
	budget int // events still allowed to schedule children
}

type modelEvent struct {
	p  *modelProgram
	id int
}

func (ev *modelEvent) Fire() { ev.p.fire(ev.id) }

// check compares the engine's observable state with the model's.
func (p *modelProgram) check(where string) {
	p.t.Helper()
	if got := p.eng.Now(); got != p.model.now {
		p.t.Fatalf("trial %d, %s: Now = %v, model %v", p.trial, where, got, p.model.now)
	}
	if got, want := p.eng.Pending(), len(p.model.pending); got != want {
		p.t.Fatalf("trial %d, %s: Pending = %d, model %d", p.trial, where, got, want)
	}
	at, ok := p.eng.PeekTime()
	if i := p.model.minIndex(); i < 0 {
		if ok {
			p.t.Fatalf("trial %d, %s: PeekTime = %v, true with nothing pending", p.trial, where, at)
		}
	} else if !ok || at != p.model.pending[i].at {
		p.t.Fatalf("trial %d, %s: PeekTime = %v, %v, model %v", p.trial, where, at, ok, p.model.pending[i].at)
	}
}

// scheduleRandom queues one new event on the engine and the model: at
// zero, negative or positive delay, or at a past, present or future
// absolute time. Future times are a few milliseconds away, so equal
// timestamps collide; or 2^k - 1, 2^k or 2^k + 1 ns past the clock for k up
// to 40, or at an absolute 2^k - 1, 2^k or 2^k + 1 ns for k up to 62, so
// keys straddle the bit boundaries that pick a bucket; or anywhere up to
// 1<<62. sameInstant restricts it to times that clamp to now.
func (p *modelProgram) scheduleRandom(sameInstant bool) {
	id := p.nextID
	p.nextID++
	ev := &modelEvent{p: p, id: id}
	now := p.model.now
	at := now
	switch k := p.rng.Intn(8); {
	case k == 1:
		at -= time.Duration(p.rng.Intn(3)+1) * time.Millisecond
	case k == 0, sameInstant:
	case k < 5:
		at += time.Duration(p.rng.Intn(3)+1) * time.Millisecond
	case k == 5:
		at += 1<<p.rng.Intn(41) + time.Duration(p.rng.Intn(3)-1)
	case k == 6:
		at = 1<<p.rng.Intn(63) + time.Duration(p.rng.Intn(3)-1)
	default:
		at = time.Duration(p.rng.Int63n(1<<62 + 1))
	}
	p.model.schedule(at, id)
	if p.rng.Intn(2) == 0 {
		p.eng.ScheduleEvent(at-now, ev)
	} else {
		p.eng.ScheduleEventAt(at, ev)
	}
}

func (p *modelProgram) fire(id int) {
	p.t.Helper()
	want := p.model.pop()
	if id != want.id {
		p.t.Fatalf("trial %d: event %d fired, model expects %d (at %v, seq %d)",
			p.trial, id, want.id, want.at, want.seq)
	}
	p.model.now = want.at
	p.fired++
	p.check("in Fire")
	// Children: same-instant ones queue behind everything already due at
	// this instant; future ones may share a bucket with older events.
	if p.budget > 0 {
		p.budget--
		for n := p.rng.Intn(3); n > 0; n-- {
			p.scheduleRandom(p.rng.Intn(2) == 0)
		}
	}
}

// takeAndReplay surrenders the queue with TakePending, checks it against
// the model's (at, seq) order, and replays it onto the same engine or a
// fresh one, whose clock starts at zero or at the old engine's time.
func (p *modelProgram) takeAndReplay() {
	p.t.Helper()
	var want []modelEntry
	for len(p.model.pending) > 0 {
		want = append(want, p.model.pop())
	}
	taken := p.eng.TakePending()
	if len(taken) != len(want) {
		p.t.Fatalf("trial %d: TakePending returned %d events, model %d", p.trial, len(taken), len(want))
	}
	for i, pe := range taken {
		if id := pe.Ev.(*modelEvent).id; id != want[i].id || pe.At != want[i].at {
			p.t.Fatalf("trial %d: TakePending[%d] = event %d at %v, model event %d at %v",
				p.trial, i, id, pe.At, want[i].id, want[i].at)
		}
	}
	p.check("after TakePending")
	switch p.rng.Intn(3) {
	case 1:
		p.eng = NewEngine()
		p.model.now = 0
	case 2:
		now := p.eng.Now()
		p.eng = NewEngine()
		p.eng.AdvanceTo(now)
	}
	for _, pe := range taken {
		p.model.schedule(pe.At, pe.Ev.(*modelEvent).id)
		p.eng.ScheduleEventAt(pe.At, pe.Ev)
	}
}

// TestTwoTierOrderMatchesModel is the model-based test for the radix
// queue, its due-now bucket 0 and its redistributions together: random
// programs of ScheduleEvent and ScheduleEventAt (zero, negative, past and
// bit-straddling times included), handlers that schedule same-instant and
// future children, interleaved Step, AdvanceTo and RunUntil, and mid-run
// TakePending replays must fire exactly the model's (clamped at, seq)
// order, and Now, PeekTime and Pending must agree with the model after
// every operation.
func TestTwoTierOrderMatchesModel(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		p := &modelProgram{
			t:      t,
			trial:  trial,
			rng:    rand.New(rand.NewSource(int64(trial))),
			eng:    NewEngine(),
			budget: 300,
		}
		for op := 0; op < 300; op++ {
			switch k := p.rng.Intn(20); {
			case k < 9:
				p.scheduleRandom(false)
			case k < 13:
				before, want := p.fired, len(p.model.pending) > 0
				if got := p.eng.Step(); got != want {
					p.t.Fatalf("trial %d: Step = %v, model has pending = %v", trial, got, want)
				}
				if n := p.fired - before; (n == 1) != want || n > 1 {
					p.t.Fatalf("trial %d: one Step fired %d events", trial, n)
				}
			case k < 16:
				// Horizons from just behind the clock to a few ms ahead.
				h := p.eng.Now() + time.Duration(p.rng.Intn(5)-1)*time.Millisecond
				before := p.fired
				if n := p.eng.AdvanceTo(h); n != p.fired-before {
					p.t.Fatalf("trial %d: AdvanceTo returned %d, fired %d", trial, n, p.fired-before)
				}
				if i := p.model.minIndex(); i >= 0 && p.model.pending[i].at < h {
					p.t.Fatalf("trial %d: AdvanceTo(%v) left an event at %v", trial, h, p.model.pending[i].at)
				}
				p.model.now = max(p.model.now, h)
			case k < 19:
				u := p.eng.Now() + time.Duration(p.rng.Intn(5)-1)*time.Millisecond
				before := p.fired
				if n := p.eng.RunUntil(u); n != p.fired-before {
					p.t.Fatalf("trial %d: RunUntil returned %d, fired %d", trial, n, p.fired-before)
				}
				if i := p.model.minIndex(); i >= 0 && p.model.pending[i].at <= u {
					p.t.Fatalf("trial %d: RunUntil(%v) left an event at %v", trial, u, p.model.pending[i].at)
				}
				p.model.now = max(p.model.now, u)
			default:
				p.takeAndReplay()
			}
			p.check("after op")
		}
		p.budget = 0
		for p.eng.Step() {
		}
		p.check("after drain")
		if p.fired != p.nextID {
			t.Fatalf("trial %d: fired %d of %d events", trial, p.fired, p.nextID)
		}
	}
}

// rearmEvent re-arms its partner at delay 0 until the shared count runs
// out, so two of them keep the clock at one instant for as long as they
// run.
type rearmEvent struct {
	eng     *Engine
	partner *rearmEvent
	left    *int
}

func (ev *rearmEvent) Fire() {
	if *ev.left > 0 {
		*ev.left--
		ev.eng.ScheduleEvent(0, ev.partner)
	}
}

// TestDueTierBounded: the slab's length tracks the events pending at once,
// not how many fire at one instant. Two events re-arming each other at
// delay 0 fire 100k times at t = 1s with at most three events pending, so
// the slab must stay at its first size. A due-now list that only resets
// its head when empty would grow here without bound.
func TestDueTierBounded(t *testing.T) {
	e := NewEngine()
	e.AdvanceTo(time.Second)
	left := 100_000
	a, b := &rearmEvent{eng: e, left: &left}, &rearmEvent{eng: e, left: &left}
	a.partner, b.partner = b, a
	e.ScheduleEvent(0, a)
	e.ScheduleEvent(0, b)
	e.ScheduleEvent(time.Second, eventFunc(func() {})) // a future event to pass
	fired := 0
	for left > 0 {
		if !e.Step() {
			t.Fatal("queue ran dry with re-arms left")
		}
		fired++
		if got := len(e.queue.slots); got > 8 {
			t.Fatalf("after %d firings the slab holds %d slots for %d pending", fired, got, e.Pending())
		}
	}
	if e.Now() != time.Second {
		t.Fatalf("Now = %v after same-instant firings, want 1s", e.Now())
	}
	if fired < 100_000 {
		t.Fatalf("fired %d, want at least 100000", fired)
	}
	drain(e)
	if e.Now() != 2*time.Second || e.Pending() != 0 {
		t.Fatalf("after drain: Now = %v, pending = %d", e.Now(), e.Pending())
	}
}

// TestDueTierAllocationFree: once warm, scheduling and firing allocate
// nothing, whether every event is due now (bucket 0 alone) or half are
// due later and reach bucket 0 through redistributions.
func TestDueTierAllocationFree(t *testing.T) {
	ev := &countEvent{}
	t.Run("same-instant", func(t *testing.T) {
		e := NewEngine()
		e.ScheduleEvent(0, ev)
		e.Step()
		if n := testing.AllocsPerRun(1000, func() {
			e.ScheduleEvent(0, ev)
			e.Step()
		}); n != 0 {
			t.Fatalf("ScheduleEvent(0) + Step: %v allocs/op, want 0", n)
		}
	})
	t.Run("half-future", func(t *testing.T) {
		e := NewEngine()
		for i := 0; i < 64; i++ {
			e.ScheduleEvent(time.Duration(i)*time.Millisecond, ev)
		}
		i := 0
		op := func() {
			i++
			e.ScheduleEvent(0, ev)
			e.ScheduleEvent(time.Duration(i%64+1)*time.Millisecond, ev)
			e.Step()
			e.Step()
		}
		for j := 0; j < 1000; j++ {
			op()
		}
		if n := testing.AllocsPerRun(1000, op); n != 0 {
			t.Fatalf("half same-instant, half future: %v allocs/op, want 0", n)
		}
	})
}

// mixEvent re-arms itself on every firing until the shared count runs
// out, with a delay drawn from paper-chain's event mix: due now half the
// time, otherwise 1, 16, 200 or 500 µs.
type mixEvent struct {
	eng  *Engine
	x    *uint64 // shared LCG state
	left *int
}

func (ev *mixEvent) Fire() {
	if *ev.left == 0 {
		return
	}
	*ev.left--
	*ev.x = *ev.x*6364136223846793005 + 1442695040888963407
	var delay time.Duration // top three bits 0-3: due now
	switch *ev.x >> 61 {
	case 4:
		delay = time.Microsecond
	case 5:
		delay = 16 * time.Microsecond
	case 6:
		delay = 200 * time.Microsecond
	case 7:
		delay = 500 * time.Microsecond
	}
	ev.eng.ScheduleEvent(delay, ev)
}

// TestQueueStorageTracksPending: the queue's storage tracks the peak
// number of pending events, however far the clock runs. 64 self-re-arming
// events fire 20M times on paper-chain's mix, which runs the clock past
// 2^34 ns (17 s), so every bucket below 35 empties and refills many times
// over. The slab's capacity must stay within twice the peak pending count;
// a queue that gave each bucket its own slice would end up with room for
// the whole population in every bucket a cascade passes through.
func TestQueueStorageTracksPending(t *testing.T) {
	e := NewEngine()
	x, left := uint64(1), 20_000_000
	events := make([]mixEvent, 64)
	for i := range events {
		events[i] = mixEvent{eng: e, x: &x, left: &left}
		events[i].Fire()
	}
	peak := e.Pending()
	for e.Step() {
		peak = max(peak, e.Pending())
	}
	if left != 0 {
		t.Fatalf("queue ran dry with %d re-arms left", left)
	}
	if e.Now() < 1<<34 {
		t.Fatalf("clock stopped at %v, want past 2^34 ns", e.Now())
	}
	if c := cap(e.queue.slots); c > 2*peak {
		t.Fatalf("slab capacity %d for a peak of %d pending events", c, peak)
	}
}
