package simulator

import (
	"time"
)

// The simulator's hot path schedules small typed event records instead of
// closures: a closure per tuple per hop is an allocation per tuple per hop,
// and the recursive continuation chains (deliverSeq's next(i+1) closures)
// made steady-state GC pressure proportional to delivered tuples. Event
// records, tuples, and tuple trees are recycled on single-threaded free
// lists owned by each lane. A tuple that crosses lanes is freed on its
// destination lane, and the barrier merge pays its source lane back with
// one of the destination's free tuples (drainInboxes), so after warm-up
// the event loop allocates nothing at either partition, one-way cross-rack
// flows included. The lists are plain LIFO stacks — deterministic, no
// sync.Pool nondeterminism — and recycling never affects simulation
// behaviour because no logic depends on object identity.

// Event kinds dispatched by simEvent.Fire.
const (
	evSpoutCycle  uint8 = iota // run spoutCycle on task
	evSpoutFire                // spout service complete: emit a root tuple
	evBoltTry                  // attempt to start the next queued tuple
	evBoltFire                 // bolt service complete: emit outputs
	evArrive                   // tuple reaches dest's input queue after latency
	evLinkDone                 // link finished serializing its head transfer
	evComplete                 // fire an acceptance completion
	evOOMCheck                 // memory-model boundary: enforce the hard axis
	evSpoutReplay              // replay backoff expired: queue a re-emission
	evTreeAck                  // cross-lane tuple-tree delta landing at home
)

// Completion kinds: what to do when a transfer/enqueue is accepted.
const (
	compNone    uint8 = iota // no completion (zero value)
	compDeliver              // advance task's in-progress delivery sequence
	compRelease              // return a window slot to link
)

// completion is the typed replacement for the old `accepted func()`
// continuation: it names the one thing that happens when a tuple hand-off
// is admitted downstream. Stored by value in queue waiters and transfers.
type completion struct {
	kind uint8
	// inc is the emitter's incarnation when a compDeliver hand-off began.
	// A restart abandons the delivery sequence in progress, so a
	// completion from an earlier incarnation is stale and does nothing.
	inc  uint32
	task *simTask // compDeliver: the emitter whose delivery advances
	link *link    // compRelease: the link regaining a window slot
}

// simEvent is one pooled, typed event record. A single struct with a kind
// tag (rather than one type per kind) keeps the free list trivially shared
// across all event kinds. ln is the lane whose engine fires the event; a
// record crossing lanes (via rehomeEvents) is re-tagged before scheduling.
type simEvent struct {
	ln   *simLane
	kind uint8
	// inc is the task's incarnation when a task event was scheduled, or
	// the link's when a serialization began (evLinkDone). A spout cycle or
	// service completion from an earlier incarnation is stale: its
	// executor died and was restarted before it fired, so it takes the
	// dead-task path. A stale evLinkDone's link failed mid-transfer, so
	// its tuple is dropped.
	inc  uint32
	task *simTask   // spout/bolt the event concerns
	tup  *tuple     // evBoltFire, evArrive
	dest *simTask   // evArrive
	link *link      // evLinkDone
	tr   transfer   // evLinkDone
	comp completion // evArrive, evComplete

	// Replay payload (evSpoutReplay): the failed tree's key and the
	// attempt number of the coming re-emission.
	key     uint64
	attempt int

	// Tree-ack payload (evTreeAck): see simLane.ackTree.
	tree   *tree
	delta  int32
	failed bool
}

// Fire implements des.Event. It copies what it needs, returns the record
// to the pool, then dispatches, so handlers may immediately reuse pooled
// records for the events they schedule.
//
//rstorm:hotpath
func (e *simEvent) Fire() {
	ln := e.ln
	switch e.kind {
	case evSpoutCycle:
		t, live := e.task, e.inc == e.task.inc
		ln.freeEvent(e)
		if live {
			ln.spoutCycle(t)
		}
	case evSpoutFire:
		t, live := e.task, e.inc == e.task.inc
		ln.freeEvent(e)
		if live {
			ln.spoutFire(t)
		}
	case evBoltTry:
		// Not checked for staleness: a try only starts a service if the
		// task, whatever its incarnation, is idle with a tuple queued.
		t := e.task
		ln.freeEvent(e)
		ln.boltTry(t)
	case evBoltFire:
		t, tup, live := e.task, e.tup, e.inc == e.task.inc
		ln.freeEvent(e)
		if live {
			ln.boltFire(t, tup)
		} else {
			// The executor restarted mid-service: its tuple is lost as on
			// boltFire's dead-task path. The restart credited the service
			// to the host it ran on.
			ln.dropTuple(tup)
		}
	case evArrive:
		dest, tup, comp := e.dest, e.tup, e.comp
		ln.freeEvent(e)
		ln.enqueueAt(dest, tup, comp)
	case evLinkDone:
		n, tr, live := e.link, e.tr, e.inc == e.link.inc
		ln.freeEvent(e)
		if live {
			ln.linkDone(n, tr)
		} else {
			// The link failed mid-serialization: the transfer is lost.
			ln.dropTuple(tr.tup)
		}
	case evComplete:
		comp := e.comp
		ln.freeEvent(e)
		ln.complete(comp)
	case evOOMCheck:
		ln.freeEvent(e)
		ln.oomCheck()
	case evSpoutReplay:
		t, key, attempt := e.task, e.key, e.attempt
		ln.freeEvent(e)
		ln.handleSpoutReplay(t, key, attempt)
	case evTreeAck:
		tr, delta, failed := e.tree, e.delta, e.failed
		ln.freeEvent(e)
		ln.applyAck(tr, int(delta), failed)
	}
}

//rstorm:hotpath
func (ln *simLane) newEvent(kind uint8) *simEvent {
	if n := len(ln.eventPool); n > 0 {
		ev := ln.eventPool[n-1]
		ln.eventPool = ln.eventPool[:n-1]
		ev.kind = kind
		return ev
	}
	return &simEvent{ln: ln, kind: kind}
}

// freeEvent returns a record to the pool without clearing it: every
// scheduler sets each field its kind's handler and eventHome read, and
// the pointers a pooled record keeps name objects the Simulation holds
// for its whole life (pooled tuples and trees, tasks, links), so they pin
// nothing the collector could otherwise free.
//
//rstorm:hotpath
func (ln *simLane) freeEvent(ev *simEvent) {
	ev.ln = ln
	ln.eventPool = append(ln.eventPool, ev)
}

// scheduleTask schedules a task-only event (spout cycle/fire, bolt try) on
// this lane, stamped with the task's incarnation. Task events are always
// scheduled by the task's own lane.
//
//rstorm:hotpath
func (ln *simLane) scheduleTask(delay time.Duration, kind uint8, t *simTask) {
	ev := ln.newEvent(kind)
	ev.task = t
	ev.inc = t.inc
	ln.eng.ScheduleEvent(delay, ev)
}

// scheduleComplete schedules a completion to fire after delay on the
// completion's home lane. A cross-lane completion is the back-channel of a
// tuple hand-off — the "ack" returning a link window slot or advancing the
// emitter's delivery sequence — so it pays the return network hop: one
// lookahead on top of delay. Same-lane completions (always, with one lane)
// fire locally with no added latency.
//
//rstorm:hotpath
func (ln *simLane) scheduleComplete(delay time.Duration, comp completion) {
	home := ln.compHome(comp)
	if home == ln {
		ev := ln.newEvent(evComplete)
		ev.comp = comp
		ln.eng.ScheduleEvent(delay, ev)
		return
	}
	if delay < 0 {
		delay = 0
	}
	ln.out[home.idx].Push(laneMsg{
		at:   ln.eng.Now() + delay + ln.sim.lookahead,
		kind: msgComplete,
		comp: comp,
	})
}

// scheduleArrive schedules tup's arrival at dest's input queue. delay is
// the network latency of the hop; when dest lives on another lane the
// route necessarily crossed racks, so delay is at least the lookahead and
// the arrival rides the outbox to land beyond the current window.
//
//rstorm:hotpath
func (ln *simLane) scheduleArrive(delay time.Duration, dest *simTask, tup *tuple, comp completion) {
	home := dest.node.lane
	if home == ln {
		ev := ln.newEvent(evArrive)
		ev.dest = dest
		ev.tup = tup
		ev.comp = comp
		ln.eng.ScheduleEvent(delay, ev)
		return
	}
	if delay < 0 {
		delay = 0
	}
	ln.out[home.idx].Push(laneMsg{
		at:   ln.eng.Now() + delay,
		kind: msgArrive,
		dest: dest,
		tup:  tup,
		comp: comp,
	})
}

// complete fires an acceptance completion.
//
//rstorm:hotpath
func (ln *simLane) complete(c completion) {
	switch c.kind {
	case compDeliver:
		if c.inc != c.task.inc {
			return
		}
		c.task.outIdx++
		ln.stepDeliver(c.task)
	case compRelease:
		c.link.inFlight--
		c.link.startServe(ln)
	}
}

//rstorm:hotpath
func (ln *simLane) newTuple(bytes int, key uint64, created time.Duration, tr *tree) *tuple {
	if n := len(ln.tuplePool); n > 0 {
		tup := ln.tuplePool[n-1]
		ln.tuplePool = ln.tuplePool[:n-1]
		tup.bytes = bytes
		tup.key = key
		tup.created = created
		tup.tree = tr
		return tup
	}
	return &tuple{bytes: bytes, key: key, created: created, tree: tr}
}

//rstorm:hotpath
func (ln *simLane) freeTuple(tup *tuple) {
	tup.tree = nil
	ln.tuplePool = append(ln.tuplePool, tup)
}

//rstorm:hotpath
func (ln *simLane) newTree(spout *simTask) *tree {
	if n := len(ln.treePool); n > 0 {
		tr := ln.treePool[n-1]
		ln.treePool = ln.treePool[:n-1]
		tr.spout = spout
		tr.pending = 0
		tr.failed = false
		tr.key = 0
		tr.attempt = 0
		tr.trace = 0
		return tr
	}
	return &tree{spout: spout}
}

//rstorm:hotpath
func (ln *simLane) freeTree(tr *tree) {
	tr.spout = nil
	ln.treePool = append(ln.treePool, tr)
}
