package simulator

import (
	"fmt"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/topology"
)

// Placement changes between epochs (after a RunTo, before the next) take
// one path, ReassignRestarting: an incremental rebalance (Reassign), a
// failover restart after a node crash and a killed topology's revival
// (SubmitTopology) all go through it.

// Reassign migrates a running topology onto a new assignment: it is
// ReassignRestarting with nothing to restart.
func (s *Simulation) Reassign(topoName string, a *core.Assignment) (int, error) {
	return s.ReassignRestarting(topoName, a, nil)
}

// ReassignRestarting applies a new assignment to a running topology,
// touching only tasks whose placement changed or which restart. It follows
// Storm's rebalance semantics, scaled down to those tasks:
//
//   - A live task whose placement changed migrates: its queued input
//     tuples fail (their trees release max-pending credits, so spouts
//     replay rather than wedge; counted in Result.TuplesMigrated), parked
//     producers are released, and it resumes empty on its new node.
//     Tuples already in flight toward it are delivered normally.
//   - A dead task in restart is revived empty at its placement, which must
//     be a live node; a restarted spout re-enters its cycle, parking until
//     stale trees from before its death finish draining credits. An
//     emission it was still delivering is abandoned: the outbounds not yet
//     handed off fail (counted in Result.TuplesDropped), and the pending
//     hand-off's completion fires stale.
//   - A dead task outside restart stays where it died: its entry in a is
//     normalized back to its actual placement, since a planner working
//     from measured availability will legitimately want it elsewhere.
//
// The partial window is flushed first, each moved task's busy time so far
// is credited to the host it ran on, the affected nodes' contention is
// refrozen, and the run's delivery wires are rebuilt. Nothing changes
// unless the whole assignment validates. It returns the number of tasks
// migrated or restarted.
func (s *Simulation) ReassignRestarting(topoName string, a *core.Assignment, restart map[int]bool) (int, error) {
	run, err := s.epochRun(topoName)
	if err != nil {
		return 0, err
	}
	if err := s.checkAssignment(run.topo, a); err != nil {
		return 0, err
	}
	var moving, restarting, deadStay []*simTask
	for _, st := range run.ordered {
		np := a.Placements[st.task.ID]
		switch {
		case st.dead && restart[st.task.ID]:
			restarting = append(restarting, st)
		case np == st.placement:
			continue
		case st.dead:
			deadStay = append(deadStay, st)
			continue
		default:
			moving = append(moving, st)
		}
		if s.nodes[np.Node].dead {
			return 0, fmt.Errorf("task %d placed on dead node %q", st.task.ID, np.Node)
		}
	}
	for _, st := range deadStay {
		a.Placements[st.task.ID] = st.placement
	}
	run.assignment = a
	if len(moving) == 0 && len(restarting) == 0 {
		return 0, nil
	}

	// Flush the partial window accumulated since the last boundary before
	// anything moves: the samples attribute the pre-migration slice to the
	// nodes the work ran on, and moveTask's creditHost finds every busy
	// time in uncredited. A no-op when the epoch boundary coincides with a
	// window flush (the adaptive loop's default).
	s.flushPartialWindow()
	affected := make(map[*simNode]bool, 2*(len(moving)+len(restarting)))
	departed := make([]*simLane, len(moving)+len(restarting))
	for i, st := range moving {
		departed[i] = s.moveTask(st, a.Placements[st.task.ID], affected)
	}
	for i, st := range restarting {
		// A service still pending from before the death (events at the
		// pause instant included: windows are half-open) will complete
		// stale; credit it now, so moveTask attributes it to the host it
		// ran on.
		if st.serviceEnd > 0 && st.serviceEnd >= s.now() {
			st.uncredited += st.service
			st.serviceEnd = 0
		}
		// The queue was drained when the task died.
		departed[len(moving)+i] = s.moveTask(st, a.Placements[st.task.ID], affected)
		st.dead = false
		st.busy = false
		st.parked = false
		st.inc++
	}
	// Refreeze contention on every node whose task set changed (refreeze
	// skips dead nodes: a restarting task's old node may still be down),
	// then re-resolve the run's delivery edges for the new placements.
	s.refreeze(affected)
	s.buildRouters(run)
	// Pending events homed by a moved task must follow it to its new lane
	// before the next window, or two lanes would mutate it.
	s.rehomeEvents()
	// A migrated task restarts empty on its new node, and a restarted one
	// abandons the emission its predecessor was delivering. Each fails on
	// the lane the task departed — the failed trees and released
	// producers belong to the placement the tuples ran under — but only
	// after every task has moved and rehomeEvents has folded the in-flight
	// tree deltas. The failures' deltas and the producers' completions
	// then route to the lanes their spouts and producers run on now, and
	// no removal can overtake a pending fan-out.
	for i, st := range moving {
		departed[i].failQueue(st, true)
	}
	for i, st := range restarting {
		departed[len(moving)+i].abandonEmission(st)
		if st.isSpout == 1 {
			st.node.lane.scheduleTask(0, evSpoutCycle, st)
		}
	}
	return len(moving) + len(restarting), nil
}

// epochRun returns the named topology's run, refusing unless the
// simulation is paused between epochs.
func (s *Simulation) epochRun(name string) (*topoRun, error) {
	if !s.started {
		return nil, fmt.Errorf("simulation not started")
	}
	if s.finished {
		return nil, fmt.Errorf("simulation already finished")
	}
	if run := s.runNamed(name); run != nil {
		return run, nil
	}
	return nil, fmt.Errorf("topology %q is not part of this simulation", name)
}

// runNamed returns the named topology's run, or nil.
func (s *Simulation) runNamed(name string) *topoRun {
	for _, r := range s.runs {
		if r.topo.Name() == name {
			return r
		}
	}
	return nil
}

// checkAssignment refuses an assignment that is for another topology,
// leaves one of topo's tasks unplaced, or names a node outside the cluster.
func (s *Simulation) checkAssignment(topo *topology.Topology, a *core.Assignment) error {
	if a.Topology != topo.Name() {
		return fmt.Errorf("assignment is for %q, topology is %q", a.Topology, topo.Name())
	}
	for _, task := range topo.Tasks() {
		p, ok := a.Placements[task.ID]
		if !ok {
			return fmt.Errorf("assignment for %q is incomplete", topo.Name())
		}
		if _, ok := s.nodes[p.Node]; !ok {
			return fmt.Errorf("task %d placed on unknown node %q", task.ID, p.Node)
		}
	}
	return nil
}

// moveTask re-places a task on p's node: the task set of both nodes
// changes (marked in affected for refreezing) and the busy time accrued
// on the old node is credited to it. It returns the lane the task left.
// The caller fails the task's queue or, for a dead task, restarts it.
func (s *Simulation) moveTask(st *simTask, p core.Placement, affected map[*simNode]bool) *simLane {
	old, next := st.node, s.nodes[p.Node]
	// Migration is a restart: the in-memory working set does not travel
	// with the task, so the memory model's state-growth ramp re-warms from
	// zero on the new node (inert with the model off — handled feeds
	// nothing else).
	st.handled = 0
	st.creditHost()
	removeTask(old, st)
	next.tasks = append(next.tasks, st)
	next.everHosted = true
	st.node = next
	st.placement = p
	affected[old] = true
	affected[next] = true
	return old.lane
}

// creditHost credits the busy time the task accrued since its last credit
// to the node it runs on, so end-of-run utilization is attributed to each
// host the task ran on. Its callers flush the partial window first, so
// uncredited holds all of it.
func (st *simTask) creditHost() {
	st.node.departedWeighted += float64(st.uncredited) * st.comp.EffectiveCPUPoints()
	st.uncredited = 0
}

// failQueue empties a task's input queue and waiter list on this lane:
// every tuple fails its tree, counted as migrated (an administrative
// drain) or else as dropped, and then every parked producer is released.
// All failures precede all releases; that order fixes the event sequence.
func (ln *simLane) failQueue(st *simTask, migrated bool) {
	tuples, unblocked := st.queue.drain()
	if migrated {
		ln.migrated += int64(len(tuples))
	} else {
		ln.dropped += int64(len(tuples))
	}
	for _, tup := range tuples {
		ln.failTuple(tup)
	}
	for _, comp := range unblocked {
		ln.scheduleComplete(0, comp)
	}
}

// abandonEmission drops, on this lane, the outbounds of the emission st
// was delivering that were not yet handed off (outBuf[outIdx+1:]), so
// their trees fail and release their credits, and empties the buffer. The
// outbound at outIdx was handed off; its completion fires stale.
func (ln *simLane) abandonEmission(st *simTask) {
	if st.outIdx < len(st.outBuf) {
		for _, ob := range st.outBuf[st.outIdx+1:] {
			ln.dropTuple(ob.tup)
		}
	}
	st.outBuf = st.outBuf[:0]
	st.outIdx = 0
}

// DeadNodes returns the nodes killed by failure injection so far, in
// cluster declaration order. Adaptive replanners zero these out of their
// availability picture.
func (s *Simulation) DeadNodes() []cluster.NodeID {
	var out []cluster.NodeID
	for _, id := range s.order {
		if s.nodes[id].dead {
			out = append(out, id)
		}
	}
	return out
}

// removeTask deletes st from n's task list, preserving order so contention
// refreezes stay deterministic.
func removeTask(n *simNode, st *simTask) {
	for i, t := range n.tasks {
		if t == st {
			n.tasks = append(n.tasks[:i], n.tasks[i+1:]...)
			return
		}
	}
}
