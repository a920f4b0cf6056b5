package simulator

import (
	"fmt"

	"rstorm/internal/core"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
)

// Runtime tenancy epochs (DESIGN.md §6): the multi-tenant control plane
// admits and evicts topologies while the cluster is loaded, so the
// simulator supports Submit/Kill between RunTo epochs — the same
// pause/mutate/resume discipline as Reassign, sharing its drain path.
//
// KillTopology is Storm's topology teardown scaled to one tenant: every
// task dies in place, queued input tuples fail their trees (spout
// max-pending credits return, counted in Result.TuplesMigrated — the
// administrative drain, not a crash), parked producers are released, and
// the affected nodes' CPU contention is refrozen without the departed
// demand. The run's counters and series stay: an evicted tenant's partial
// results are history, not garbage.
//
// SubmitTopology admits a topology mid-run: a fresh topology starts from
// zero on its assigned nodes, and a previously killed one is revived —
// the same executors restart empty (working sets re-warm, like a
// migration restart) on the new assignment's placements. Contention
// refreezes on every node whose task set changed.

// SubmitTopology admits a scheduled topology into a running simulation,
// between RunTo epochs. Submitting a name that was previously killed
// revives it on the new assignment; submitting a live name is an error.
// Before Start, use AddTopology.
func (s *Simulation) SubmitTopology(topo *topology.Topology, a *core.Assignment) error {
	if !s.started {
		return fmt.Errorf("simulation not started (use AddTopology before Start)")
	}
	if s.finished {
		return fmt.Errorf("simulation already finished")
	}
	for _, r := range s.runs {
		if r.topo.Name() == topo.Name() {
			return s.revive(r, a)
		}
	}
	// Validate before the flush below: a rejected submission must not
	// perturb observer state with a spurious partial flush.
	if a.Topology != topo.Name() {
		return fmt.Errorf("assignment is for %q, topology is %q", a.Topology, topo.Name())
	}
	if !a.Complete(topo) {
		return fmt.Errorf("assignment for %q is incomplete", topo.Name())
	}
	for _, task := range topo.Tasks() {
		if _, ok := s.nodes[a.Placements[task.ID].Node]; !ok {
			return fmt.Errorf("task %d placed on unknown node %q", task.ID, a.Placements[task.ID].Node)
		}
	}
	// Flush the partial window before the cluster changes shape, so the
	// pre-admission slice is attributed to the contention it ran under.
	s.flushPartialWindow()
	run, err := s.addRun(topo, a)
	if err != nil {
		return err
	}
	affected := make(map[*simNode]bool, len(run.ordered))
	for _, st := range run.ordered {
		affected[st.node] = true
	}
	s.refreeze(affected)
	for _, st := range run.ordered {
		if st.isSpout == 1 {
			st.node.lane.scheduleTask(0, evSpoutCycle, st)
		}
	}
	s.journalRecord(trace.CodeTopologySubmitted, topo.Name(), "", -1, "")
	return nil
}

// KillTopology tears a running topology down mid-run: its tasks die in
// place and their queued tuples drain through the migration path. The
// run's history (throughput series, totals) is retained for the Result,
// and the name may be revived later via SubmitTopology.
func (s *Simulation) KillTopology(name string) error {
	if !s.started {
		return fmt.Errorf("simulation not started")
	}
	if s.finished {
		return fmt.Errorf("simulation already finished")
	}
	var run *topoRun
	for _, r := range s.runs {
		if r.topo.Name() == name {
			run = r
			break
		}
	}
	if run == nil {
		return fmt.Errorf("topology %q is not part of this simulation", name)
	}
	live := false
	for _, st := range run.ordered {
		if !st.dead {
			live = true
			break
		}
	}
	if !live {
		return fmt.Errorf("topology %q is already dead", name)
	}

	// Attribute the pre-kill slice of the window before anything changes.
	s.flushPartialWindow()
	affected := make(map[*simNode]bool, len(run.ordered))
	for _, st := range run.ordered {
		if st.dead {
			continue
		}
		st.dead = true
		st.busy = false
		st.parked = false
		ln := st.node.lane
		tuples, unblocked := st.queue.drain()
		for _, tup := range tuples {
			ln.migrateTuple(tup)
		}
		for _, comp := range unblocked {
			ln.scheduleComplete(0, comp)
		}
		// Credit the busy time accrued on this host so end-of-run
		// utilization attribution survives a later revival elsewhere.
		delta := st.tracker.Busy() - st.creditedBusy
		st.node.departedWeighted += float64(delta) * st.comp.EffectiveCPUPoints()
		st.creditedBusy = st.tracker.Busy()
		// A teardown is a restart: the working set does not survive it.
		st.handled = 0
		affected[st.node] = true
	}
	s.refreeze(affected)
	s.journalRecord(trace.CodeTopologyKilled, name, "", -1, "")
	return nil
}

// revive restarts a fully killed topology on a new assignment. Stale
// in-flight work from before the kill self-drains: queues were emptied at
// kill, tuples still traveling toward the executors dropped on arrival,
// and outstanding spout trees complete as their instances fail, returning
// max-pending credits — a revived spout whose window is still partly held
// by stale trees simply parks until they finish draining.
func (s *Simulation) revive(run *topoRun, a *core.Assignment) error {
	name := run.topo.Name()
	for _, st := range run.ordered {
		if !st.dead {
			return fmt.Errorf("topology %q already added", name)
		}
	}
	if a.Topology != name {
		return fmt.Errorf("assignment is for %q, topology is %q", a.Topology, name)
	}
	if !a.Complete(run.topo) {
		return fmt.Errorf("assignment for %q is incomplete", name)
	}
	for _, st := range run.ordered {
		np := a.Placements[st.task.ID]
		node, ok := s.nodes[np.Node]
		if !ok {
			return fmt.Errorf("task %d revived on unknown node %q", st.task.ID, np.Node)
		}
		if node.dead {
			return fmt.Errorf("task %d revived on dead node %q", st.task.ID, np.Node)
		}
	}

	s.flushPartialWindow()
	affected := make(map[*simNode]bool, 2*len(run.ordered))
	for _, st := range run.ordered {
		np := a.Placements[st.task.ID]
		next := s.nodes[np.Node]
		affected[st.node] = true
		removeTask(st.node, st)
		next.tasks = append(next.tasks, st)
		next.everHosted = true
		st.node = next
		st.placement = np
		st.dead = false
		st.busy = false
		st.parked = false
		// outBuf/outIdx are deliberately untouched: a stale delivery
		// completion from before the kill (still draining toward dead
		// consumers) finishes its old sequence deterministically, and every
		// new emission resets the cursor itself (spoutFire/boltFire).
		affected[next] = true
	}
	run.assignment = a
	s.refreeze(affected)
	s.buildRouters(run)
	// Stale events homed by revived tasks (replay backoffs, in-flight
	// arrivals) must follow them to their new lanes.
	s.rehomeEvents()
	for _, st := range run.ordered {
		if st.isSpout == 1 {
			st.node.lane.scheduleTask(0, evSpoutCycle, st)
		}
	}
	s.journalRecord(trace.CodeTopologySubmitted, name, "", -1, "revived")
	return nil
}

// refreeze recomputes contention on every affected live node, in cluster
// declaration order for determinism.
func (s *Simulation) refreeze(affected map[*simNode]bool) {
	for _, id := range s.order {
		if n := s.nodes[id]; affected[n] && !n.dead {
			s.freezeNode(n)
		}
	}
}
