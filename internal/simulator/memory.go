package simulator

import "rstorm/internal/trace"

// Runtime memory model (DESIGN.md §4). When Config.MemoryModel is set, each
// task's resident memory is accounted online:
//
//	resident(t) = workingSet(t) + queueBytes(t)
//
// where workingSet ramps linearly from zero to the component's *true*
// steady footprint (ExecProfile.MemMB, falling back to the declared
// MemoryLoad) over ExecProfile.MemGrowTuples handled tuples — the
// state-growth term that makes memory mis-declarations a runtime
// phenomenon rather than a t=0 violation — and queueBytes is the payload
// resident in the task's input queue.
//
// Memory is the hard axis (§3): a node whose residents exceed
// Capacity.MemoryMB OOM-kills its worst-offending (largest-resident) task,
// repeatedly until the node fits again. Enforcement runs at metrics-window
// boundaries — the sampling cadence of an OS OOM killer — after the
// observer flush, so the adaptive controller always sees the over-capacity
// window that triggered a kill. A killed task is dead for the rest of the
// run: its queue drains through the failure path (trees fail, spouts
// recover their max-pending credits, drops counted in
// Result.TuplesDropped), its in-service tuple fails via the dead-task
// credit path in boltFire, and its working set is freed. Kills are counted
// in Result.TasksOOMKilled.
//
// With MemoryModel unset nothing here runs and results are byte-identical
// to the memory-blind simulator.

// residentMemMB returns a task's resident memory in MB under the runtime
// memory model. Dead tasks hold nothing: their state is freed and their
// queues were drained at kill time.
//
//rstorm:hotpath
func (s *Simulation) residentMemMB(t *simTask) float64 {
	if t.dead {
		return 0
	}
	mem := t.comp.EffectiveMemMB()
	if grow := t.comp.Profile.MemGrowTuples; grow > 0 {
		if n := t.handled; n < int64(grow) {
			mem = mem * float64(n) / float64(grow)
		}
	}
	return mem + float64(t.queue.residentBytes())/(1<<20)
}

// nodeResidentMemMB sums the resident memory of a node's live tasks.
//
//rstorm:hotpath
func (s *Simulation) nodeResidentMemMB(n *simNode) float64 {
	var total float64
	for _, t := range n.tasks {
		total += s.residentMemMB(t)
	}
	return total
}

// oomCheck enforces the memory hard axis on the lane's live nodes, then
// schedules the lane's next check. Each lane polices only its own nodes
// (a single lane holds the whole cluster and sweeps every node). Nodes
// are visited in cluster declaration order
// and kills pick the strictly-largest resident (first in hosting order on
// ties), so enforcement is deterministic for a fixed seed.
func (ln *simLane) oomCheck() {
	s := ln.sim
	for _, n := range ln.nodes {
		if n.dead || n.spec.Capacity.MemoryMB <= 0 {
			continue
		}
		killed := false
		for s.nodeResidentMemMB(n) > n.spec.Capacity.MemoryMB {
			worst := s.worstOffender(n)
			if worst == nil {
				break
			}
			ln.oomKill(worst)
			killed = true
		}
		if killed {
			// The node survives with fewer residents: refreeze its CPU
			// overcommit stretch so the survivors' service times reflect
			// the dead tasks' departed demand.
			s.freezeNode(n)
		}
	}
	if next := ln.eng.Now() + s.cfg.MetricsWindow; next <= s.cfg.Duration {
		ln.eng.ScheduleEvent(s.cfg.MetricsWindow, ln.newEvent(evOOMCheck))
	}
}

// worstOffender returns the node's live task with the largest resident
// memory (ties resolve to the earliest-hosted task), or nil if none left.
func (s *Simulation) worstOffender(n *simNode) *simTask {
	var worst *simTask
	var worstMem float64
	for _, t := range n.tasks {
		if t.dead {
			continue
		}
		if m := s.residentMemMB(t); worst == nil || m > worstMem {
			worst, worstMem = t, m
		}
	}
	return worst
}

// oomKill marks a task dead and releases everything it holds, mirroring
// failNode scaled to one executor: queued tuples fail their trees (credits
// return to spouts, drops counted), parked producers are released, and a
// tuple mid-service fails through boltFire's dead-task path. A killed
// spout's in-flight trees complete or fail downstream as usual, returning
// every max-pending credit to the (dead, so never re-firing) spout.
func (ln *simLane) oomKill(t *simTask) {
	t.dead = true
	ln.oomKilled++
	ln.sim.journalRecord(trace.CodeOOMKill, t.run.topo.Name(), string(t.node.id),
		t.task.ID, t.comp.Name)
	ln.failQueue(t, false)
}
