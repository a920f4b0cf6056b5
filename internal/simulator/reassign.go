package simulator

import (
	"fmt"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
)

// Reassign migrates a running topology onto a new assignment between
// epochs (after a RunTo, before the next). It is the simulator half of an
// incremental rebalance: only tasks whose placement changed are touched.
//
// Migration follows Storm's rebalance semantics, scaled down to the tasks
// actually moving: a migrating task's queued input tuples fail (their trees
// release max-pending credits, so spouts replay rather than wedge; the loss
// is counted in Result.TuplesMigrated), parked producers are released, and
// the task resumes empty on its new node. Affected nodes' CPU overcommit
// stretch and their tasks' service times are refrozen, and the run's
// delivery wires are rebuilt for the new placements. Tuples already in
// flight toward a moved task are delivered normally (its queue survives the
// move; only the path metadata was stale for the transition).
//
// It returns the number of tasks migrated (zero when the new assignment is
// identical).
func (s *Simulation) Reassign(topoName string, a *core.Assignment) (int, error) {
	if !s.started {
		return 0, fmt.Errorf("simulation not started")
	}
	if s.finished {
		return 0, fmt.Errorf("simulation already finished")
	}
	var run *topoRun
	for _, r := range s.runs {
		if r.topo.Name() == topoName {
			run = r
			break
		}
	}
	if run == nil {
		return 0, fmt.Errorf("topology %q is not part of this simulation", topoName)
	}
	if a.Topology != topoName {
		return 0, fmt.Errorf("assignment is for %q, topology is %q", a.Topology, topoName)
	}
	if !a.Complete(run.topo) {
		return 0, fmt.Errorf("assignment for %q is incomplete", topoName)
	}

	// Validate every changed placement before mutating anything. A dead
	// task's entry is normalized back to its actual placement rather than
	// rejected: there is no executor left to migrate, and a planner
	// working from measured availability will legitimately want the
	// failed node's tasks elsewhere. The assignment is therefore mutated
	// to record what was really applied, and the returned count is the
	// number of tasks that actually migrated.
	var moving, deadStay []*simTask
	for _, st := range run.ordered {
		np := a.Placements[st.task.ID]
		if np == st.placement {
			continue
		}
		if st.dead {
			deadStay = append(deadStay, st)
			continue
		}
		node, ok := s.nodes[np.Node]
		if !ok {
			return 0, fmt.Errorf("task %d reassigned to unknown node %q", st.task.ID, np.Node)
		}
		if node.dead {
			return 0, fmt.Errorf("task %d reassigned to dead node %q", st.task.ID, np.Node)
		}
		moving = append(moving, st)
	}
	// Validation passed: now (and only now) normalize dead entries and
	// adopt the assignment.
	for _, st := range deadStay {
		a.Placements[st.task.ID] = st.placement
	}
	run.assignment = a
	if len(moving) == 0 {
		return 0, nil
	}

	// Flush the partial window accumulated since the last boundary before
	// anything moves, so the observer's samples attribute the pre-migration
	// slice to the nodes the work actually ran on. A no-op when the epoch
	// boundary coincides with a window flush (the adaptive loop's default).
	s.flushPartialWindow()

	affected := make(map[*simNode]bool, 2*len(moving))
	departed := make([]*simLane, len(moving))
	for i, st := range moving {
		departed[i] = s.moveTask(st, a.Placements[st.task.ID], affected)
	}
	// Refreeze contention on every node whose task set changed, then
	// re-resolve the run's delivery edges for the new placements.
	s.refreeze(affected)
	s.buildRouters(run)
	// Pending events homed by a moved task must follow it to its new lane
	// before the next window, or two lanes would mutate it.
	s.rehomeEvents()
	s.drainMoved(moving, departed)
	return len(moving), nil
}

// moveTask re-places a task on p's node: the task set of both nodes
// changes (marked in affected for refreezing) and the busy time accrued
// on the old node is credited to it. It returns the lane the task left.
// The caller drains the task's queue (drainMoved) or, for a dead task,
// restarts it.
func (s *Simulation) moveTask(st *simTask, p core.Placement, affected map[*simNode]bool) *simLane {
	old, next := st.node, s.nodes[p.Node]
	// Migration is a restart: the in-memory working set does not travel
	// with the task, so the memory model's state-growth ramp re-warms from
	// zero on the new node (inert with the model off — handled feeds
	// nothing else).
	st.handled = 0
	// Credit the busy time accrued here to the node it ran on, so
	// end-of-run utilization is attributed per host.
	delta := st.tracker.Busy() - st.creditedBusy
	old.departedWeighted += float64(delta) * st.comp.EffectiveCPUPoints()
	st.creditedBusy = st.tracker.Busy()
	removeTask(old, st)
	next.tasks = append(next.tasks, st)
	next.everHosted = true
	st.node = next
	st.placement = p
	affected[old] = true
	affected[next] = true
	return old.lane
}

// drainMoved empties the input queues of tasks that just moved: the
// worker restarts empty on its new node. Each drain runs on the lane the
// task departed — the failed trees and released producers belong to the
// placement the tuples ran under — but only after every task has moved
// and rehomeEvents has folded the in-flight tree deltas. The failures'
// deltas and the producers' completions then route to the lanes their
// spouts and producers run on now, and no removal can overtake a pending
// fan-out.
func (s *Simulation) drainMoved(moving []*simTask, departed []*simLane) {
	for i, st := range moving {
		tuples, unblocked := st.queue.drain()
		for _, tup := range tuples {
			departed[i].migrateTuple(tup)
		}
		for _, comp := range unblocked {
			departed[i].scheduleComplete(0, comp)
		}
	}
}

// ReassignRestarting is Reassign plus executor restarts: tasks in the
// restart set that are currently dead are revived at their assignment's
// placement (which must be a live node) — the failover path after a node
// crash, and the re-spread path after the node returns. Like a revive,
// a restarted executor begins empty (working set re-warms, queue empty)
// and a restarted spout re-enters its cycle, parking until stale trees
// from before the crash finish draining credits. Live tasks and dead
// tasks outside the restart set follow plain Reassign semantics. Returns
// the number of tasks migrated or restarted.
func (s *Simulation) ReassignRestarting(topoName string, a *core.Assignment, restart map[int]bool) (int, error) {
	if !s.started {
		return 0, fmt.Errorf("simulation not started")
	}
	if s.finished {
		return 0, fmt.Errorf("simulation already finished")
	}
	var run *topoRun
	for _, r := range s.runs {
		if r.topo.Name() == topoName {
			run = r
			break
		}
	}
	if run == nil {
		return 0, fmt.Errorf("topology %q is not part of this simulation", topoName)
	}
	if a.Topology != topoName {
		return 0, fmt.Errorf("assignment is for %q, topology is %q", a.Topology, topoName)
	}
	if !a.Complete(run.topo) {
		return 0, fmt.Errorf("assignment for %q is incomplete", topoName)
	}

	// Validate everything before mutating anything (same discipline as
	// Reassign). Dead tasks outside the restart set normalize back to
	// their actual placement; restarting tasks must land on live nodes.
	var moving, restarting, deadStay []*simTask
	for _, st := range run.ordered {
		np := a.Placements[st.task.ID]
		if st.dead && restart[st.task.ID] {
			node, ok := s.nodes[np.Node]
			if !ok {
				return 0, fmt.Errorf("task %d restarted on unknown node %q", st.task.ID, np.Node)
			}
			if node.dead {
				return 0, fmt.Errorf("task %d restarted on dead node %q", st.task.ID, np.Node)
			}
			restarting = append(restarting, st)
			continue
		}
		if np == st.placement {
			continue
		}
		if st.dead {
			deadStay = append(deadStay, st)
			continue
		}
		node, ok := s.nodes[np.Node]
		if !ok {
			return 0, fmt.Errorf("task %d reassigned to unknown node %q", st.task.ID, np.Node)
		}
		if node.dead {
			return 0, fmt.Errorf("task %d reassigned to dead node %q", st.task.ID, np.Node)
		}
		moving = append(moving, st)
	}
	for _, st := range deadStay {
		a.Placements[st.task.ID] = st.placement
	}
	run.assignment = a
	if len(moving) == 0 && len(restarting) == 0 {
		return 0, nil
	}

	s.flushPartialWindow()
	affected := make(map[*simNode]bool, 2*(len(moving)+len(restarting)))
	departed := make([]*simLane, len(moving))
	for i, st := range moving {
		departed[i] = s.moveTask(st, a.Placements[st.task.ID], affected)
	}
	for _, st := range restarting {
		// The queue was drained when the node crashed; the old host
		// (possibly still dead) keeps the busy time the executor accrued
		// there.
		s.moveTask(st, a.Placements[st.task.ID], affected)
		st.dead = false
		st.busy = false
		st.parked = false
		// outBuf/outIdx stay, as in revive: a stale delivery sequence from
		// before the crash finishes deterministically; new emissions reset
		// the cursor themselves.
	}
	// refreeze skips dead nodes: a restarting task's old node may still
	// be down.
	s.refreeze(affected)
	s.buildRouters(run)
	s.rehomeEvents()
	s.drainMoved(moving, departed)
	for _, st := range restarting {
		if st.isSpout == 1 {
			st.node.lane.scheduleTask(0, evSpoutCycle, st)
		}
	}
	return len(moving) + len(restarting), nil
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
