package simulator

import (
	"time"

	"rstorm/internal/des"
	"rstorm/internal/pardes"
)

// A simLane is one independently advancing event loop over a fixed subset
// of the cluster's nodes (DESIGN.md §11). Config.Shards == 0 runs one lane
// holding every node. Shards >= 1 runs one lane per rack: the rack uplink
// latency is the minimum time any tuple needs to cross between racks,
// which is exactly the conservative lookahead bound the window loop
// (sharded.go) advances under.
//
// Everything a lane mutates on the hot path lives on the lane (event,
// tuple and tree free lists, drop/replay counters) or on objects the lane
// owns (its nodes, their tasks, their links), so lanes running on separate
// worker goroutines never contend. The only cross-lane channel is the
// outbox ring: messages pushed during a window are timestamped at least a
// lookahead in the future and drained into the destination lane's engine
// at the next merge barrier, in fixed (destination, source) lane order, so
// the merged event streams are identical for every worker count.
type simLane struct {
	sim   *Simulation
	idx   int
	eng   *des.Engine
	nodes []*simNode // the lane's nodes, in cluster declaration order

	// out[i] is the outbox ring toward lane i. Single-producer during a
	// window (only this lane pushes), single-consumer at the barrier (only
	// the coordinator pops); the barrier itself is the fence.
	out []pardes.Ring[laneMsg]

	// Per-lane slices of the simulation-wide counters, summed at
	// buildResult. Integer sums commute, so the totals do not depend on
	// how the counts split between lanes.
	dropped   int64
	migrated  int64
	oomKilled int64
	replayed  int64
	lostTrees int64

	// faultBuf collects fault records applied by this lane during a
	// window; merged into Simulation.faultLog by (time, lane) at barriers.
	faultBuf []FaultRecord

	// Free lists (see events.go). LIFO stacks touched only by this lane.
	// Tuples freed on a lane other than their birth lane simply join the
	// local list: recycling never affects simulation behaviour.
	eventPool []*simEvent
	tuplePool []*tuple
	treePool  []*tree
}

func newLane(s *Simulation, idx int) *simLane {
	return &simLane{sim: s, idx: idx, eng: des.NewEngine()}
}

// Cross-lane message kinds.
const (
	msgArrive   uint8 = iota // tuple arrival at a task on another lane
	msgComplete              // acceptance completion homed on another lane
	msgAck                   // tuple-tree delta for a tree homed on another lane
)

// laneMsg is one cross-lane hand-off, stored by value in the outbox ring.
// at is the virtual time the message takes effect in the destination lane;
// the conservative contract guarantees at is never inside the window that
// produced it.
type laneMsg struct {
	at   time.Duration
	kind uint8
	dest *simTask   // msgArrive
	tup  *tuple     // msgArrive
	comp completion // msgArrive (acceptance), msgComplete
	tree *tree      // msgAck
	// delta/failed are the ack payload: instances added by a fan-out or
	// removed by a completion/failure, and whether a descendant failed.
	delta  int32
	failed bool
}

// compHome returns the lane a completion must fire on: the emitting task's
// for delivery-advance completions, the link's for window-slot releases.
//
//rstorm:hotpath
func (ln *simLane) compHome(comp completion) *simLane {
	switch comp.kind {
	case compDeliver:
		return comp.task.node.lane
	case compRelease:
		return comp.link.lane
	}
	return ln
}

// ackTree applies a tuple-tree delta — instances added by a fan-out, or
// one removed by a completion or failure — on the tree's home lane (its
// spout's). Same-lane deltas apply inline; with one lane every delta
// does. Cross-lane deltas ride the outbox and land a lookahead later,
// modeling the ack message's own network hop; the home lane is the only
// writer of pending/failed, so tree state needs no locks.
//
// While placements are fixed, a delayed delta cannot complete a tree
// early: a descendant's removal is observed after the fan-out that
// created it, because the child tuple itself crossed the same racks with
// at least the same latency plus a positive service time. A Reassign
// breaks that argument — it can put a child's consumer, or the tree's
// spout, on the home lane while the parent's delta is still in flight,
// so the child's removal would apply first and free a live tree. A
// placement change therefore folds every pending delta into its tree at
// the barrier, before any event runs under the new placement and before
// the moved tasks' queues fail (rehomeEvents, then failQueue in
// ReassignRestarting).
//
//rstorm:hotpath
func (ln *simLane) ackTree(tr *tree, delta int, failed bool) {
	sp := tr.spout
	if sp == nil || sp.node.lane == ln {
		ln.applyAck(tr, delta, failed)
		return
	}
	home := sp.node.lane
	ln.out[home.idx].Push(laneMsg{
		at:     ln.eng.Now() + ln.sim.lookahead,
		kind:   msgAck,
		tree:   tr,
		delta:  int32(delta),
		failed: failed,
	})
}

// applyAck is the home-lane half of ackTree.
//
//rstorm:hotpath
func (ln *simLane) applyAck(tr *tree, delta int, failed bool) {
	if failed {
		tr.failed = true
	}
	tr.pending += delta
	if tr.pending == 0 {
		ln.completeTree(tr)
	}
}

// drainInboxes moves every queued cross-lane message into its destination
// engine. Runs only at merge barriers (between Coordinator.Advance calls)
// and between epochs, single-threaded. Destination lanes are drained in
// index order, and each destination drains its sources in index order with
// ring FIFO preserved, so equal-timestamp messages receive engine sequence
// numbers in a fixed total order — independent of the worker count.
func (s *Simulation) drainInboxes() {
	for _, dst := range s.lanes {
		for _, src := range s.lanes {
			r := &src.out[dst.idx]
			for r.Len() > 0 {
				m := r.Pop()
				switch m.kind {
				case msgArrive:
					ev := dst.newEvent(evArrive)
					ev.dest = m.dest
					ev.tup = m.tup
					ev.comp = m.comp
					dst.eng.ScheduleEventAt(m.at, ev)
				case msgComplete:
					ev := dst.newEvent(evComplete)
					ev.comp = m.comp
					dst.eng.ScheduleEventAt(m.at, ev)
				case msgAck:
					ev := dst.newEvent(evTreeAck)
					ev.tree = m.tree
					ev.delta = m.delta
					ev.failed = m.failed
					dst.eng.ScheduleEventAt(m.at, ev)
				}
			}
		}
	}
}

// mergeLaneFaults folds the lanes' fault buffers into the shared log in
// virtual-time order (ties resolve by lane index). Each lane's buffer is
// already time-ordered (records append as faults fire), so a k-way merge
// keeps the whole log ordered across epochs.
func (s *Simulation) mergeLaneFaults() {
	for {
		best := -1
		for i, ln := range s.lanes {
			if len(ln.faultBuf) == 0 {
				continue
			}
			if best == -1 || ln.faultBuf[0].At < s.lanes[best].faultBuf[0].At {
				best = i
			}
		}
		if best == -1 {
			return
		}
		ln := s.lanes[best]
		s.faultLog = append(s.faultLog, ln.faultBuf[0])
		ln.faultBuf = ln.faultBuf[:copy(ln.faultBuf, ln.faultBuf[1:])]
	}
}

// rehomeEvents redistributes every pending event after task placements
// changed (ReassignRestarting): an event homed by its task — bolt
// wakeups, arrivals, spout cycles — must fire on the lane that now owns
// the task, or two lanes would mutate it concurrently. Called
// only between epochs with the inboxes drained, so the engines hold the
// complete pending set. Events are collected from every lane first (in
// lane index order, each lane's in (time, sequence) order), then
// rescheduled at their original timestamps in collection order: fresh
// sequence numbers preserve relative order within a lane, and the
// collection order breaks cross-lane ties deterministically. With one
// lane this reschedules the queue in its own order.
//
// Pending tuple-tree deltas are not rescheduled but applied here, at the
// barrier: the lanes are quiescent, so the fold sees every delta sent
// before the move, and no delta can arrive after a removal the move made
// local (see ackTree). A tree the fold completes wakes its spout on the
// spout's current lane.
func (s *Simulation) rehomeEvents() {
	type lanePending struct {
		src *simLane
		evs []des.PendingEvent
	}
	all := make([]lanePending, len(s.lanes))
	for i, ln := range s.lanes {
		all[i] = lanePending{src: ln, evs: ln.eng.TakePending()}
	}
	for _, lp := range all {
		for _, pe := range lp.evs {
			home := s.eventHome(pe, lp.src)
			if se, ok := pe.Ev.(*simEvent); ok {
				if se.kind == evTreeAck {
					tr, delta, failed := se.tree, int(se.delta), se.failed
					home.freeEvent(se)
					home.applyAck(tr, delta, failed)
					continue
				}
				se.ln = home
			}
			home.eng.ScheduleEventAt(pe.At, pe.Ev)
		}
	}
}

// eventHome resolves the lane a pending event must fire on after a
// placement change. Fault injections and per-lane ticks stay where they
// were: their subject — a node, a lane's node subset — never moves
// between lanes.
func (s *Simulation) eventHome(pe des.PendingEvent, src *simLane) *simLane {
	se, ok := pe.Ev.(*simEvent)
	if !ok {
		return src
	}
	switch se.kind {
	case evSpoutCycle, evSpoutFire, evBoltTry, evBoltFire, evSpoutReplay:
		return se.task.node.lane
	case evArrive:
		return se.dest.node.lane
	case evLinkDone:
		return se.link.lane
	case evComplete:
		return src.compHome(se.comp)
	case evTreeAck:
		if sp := se.tree.spout; sp != nil {
			return sp.node.lane
		}
		return src
	default: // evOOMCheck
		return src
	}
}

// taskSeed derives a per-task splitmix64 stream state from the run seed,
// the topology name, and the task ID. The derivation depends only on
// stable identifiers — never on placement, rack, or shard count — so a
// run's key streams survive Reassign and are identical for every worker
// count.
func taskSeed(seed int64, topo string, id int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(topo); i++ {
		h ^= uint64(topo[i])
		h *= prime64
	}
	h ^= uint64(seed)
	h *= prime64
	h ^= uint64(id)
	h *= prime64
	return h
}

// nextKey draws the task's next spout key from its private splitmix64
// stream. A simulation-wide RNG's draw order would depend on how the
// lanes interleave.
//
//rstorm:hotpath
func (t *simTask) nextKey() uint64 {
	t.rngState += 0x9e3779b97f4a7c15
	z := t.rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
