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
// pause/mutate/resume discipline as Reassign.
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
// zero on its assigned nodes, and a previously killed one is revived
// through the placement path (ReassignRestarting, reassign.go) with every
// task restarting — the same executors restart empty (working sets
// re-warm) on the new assignment's placements. Contention refreezes on
// every node whose task set changed.

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
	if run := s.runNamed(topo.Name()); run != nil {
		return s.revive(run, a)
	}
	// Validate before the flush below: a rejected submission must not
	// perturb observer state with a spurious partial flush.
	if err := s.checkAssignment(topo, a); err != nil {
		return err
	}
	// Flush the partial window before the cluster changes shape, so the
	// pre-admission slice is attributed to the contention it ran under.
	s.flushPartialWindow()
	run := s.addRun(topo, a)
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
// place and their queued tuples fail as migrated. The run's history
// (throughput series, totals) is retained for the Result, and the name may
// be revived later via SubmitTopology.
func (s *Simulation) KillTopology(name string) error {
	run, err := s.epochRun(name)
	if err != nil {
		return err
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

	// Flush the pre-kill slice of the window before anything changes, so
	// creditHost below finds every busy time in uncredited.
	s.flushPartialWindow()
	affected := make(map[*simNode]bool, len(run.ordered))
	for _, st := range run.ordered {
		if st.dead {
			continue
		}
		st.dead = true
		st.busy = false
		st.parked = false
		st.node.lane.failQueue(st, true)
		st.creditHost()
		// A teardown is a restart: the working set does not survive it.
		st.handled = 0
		affected[st.node] = true
	}
	s.refreeze(affected)
	s.journalRecord(trace.CodeTopologyKilled, name, "", -1, "")
	return nil
}

// revive restarts a fully killed topology on a new assignment: the
// placement path with every task in the restart set. Stale in-flight work
// from before the kill self-drains: queues were emptied at kill, tuples
// still traveling toward the executors dropped on arrival, and outstanding
// spout trees complete as their instances fail, returning max-pending
// credits — a revived spout whose window is still partly held by stale
// trees simply parks until they finish draining.
func (s *Simulation) revive(run *topoRun, a *core.Assignment) error {
	name := run.topo.Name()
	restart := make(map[int]bool, len(run.ordered))
	for _, st := range run.ordered {
		if !st.dead {
			return fmt.Errorf("topology %q already added", name)
		}
		restart[st.task.ID] = true
	}
	if _, err := s.ReassignRestarting(name, a, restart); err != nil {
		return err
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
