package simulator

import (
	"fmt"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/faults"
	"rstorm/internal/trace"
)

// Fault injection (DESIGN.md §7): the simulator consumes the declarative
// fault model of internal/faults. Crash kills a node until it recovers,
// Recover returns its capacity and refreezes contention — the node's dead
// executors stay dead until a control plane re-places or restarts them
// (ReassignRestarting) — and Slow transiently stretches its service times
// by a factor.
//
// Injection is legal both pre-start (the schedule is installed in Start)
// and mid-run between RunTo epochs, which is what lets an epoch-driven
// chaos harness script faults against a paused simulation.

// FaultRecord is one fault the simulation actually applied, logged in
// virtual-time order. No-op injections (crashing a dead node, recovering
// a healthy one) are not recorded.
type FaultRecord struct {
	Kind faults.Kind
	Node cluster.NodeID
	At   time.Duration
}

// String renders the record in schedule syntax.
func (fr FaultRecord) String() string {
	return faults.Fault{Kind: fr.Kind, Node: fr.Node, At: fr.At}.String()
}

// spoutReplay is one failed tuple tree queued for re-emission on its
// spout. The tree's max-pending credit is held while the entry waits.
type spoutReplay struct {
	key     uint64
	attempt int
}

// InjectFault schedules a fault event. Before Start it joins the pending
// schedule, installed in Start; mid-run it is scheduled onto the live
// event queue and must not be in the past.
// Simulation satisfies faults.Injector, so a parsed faults.Schedule can
// be applied wholesale via Schedule.Apply(sim).
func (s *Simulation) InjectFault(f faults.Fault) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if _, ok := s.nodes[f.Node]; !ok {
		return fmt.Errorf("unknown node %q", f.Node)
	}
	if !s.started {
		s.schedule = append(s.schedule, f)
		return nil
	}
	if s.finished {
		return fmt.Errorf("simulation already finished")
	}
	now := s.now()
	if f.At < now {
		return fmt.Errorf("fault %s is in the past (now %v)", f, now)
	}
	// The fault fires on the faulted node's lane: it mutates that lane's
	// node, tasks, and links, so it must run inside that lane's loop.
	ln := s.nodes[f.Node].lane
	ln.eng.ScheduleEvent(f.At-now, &faultEvent{ln: ln, f: f})
	return nil
}

// faultEvent fires one injected fault on the faulted node's lane. It is
// its own event type rather than a kind of the pooled simEvent: faults
// are rare, and every tuple hop would pay for the extra field.
type faultEvent struct {
	ln *simLane
	f  faults.Fault
}

// Fire implements des.Event.
func (e *faultEvent) Fire() { e.ln.applyFault(e.f) }

// applyFault dispatches one fault event inside the faulted node's lane.
// Redundant events (crash of a dead node, recover of a healthy one) are
// ignored rather than logged, so the fault log records state transitions
// only. Lanes buffer their records; mergeLaneFaults folds them into the
// shared log at barriers.
func (ln *simLane) applyFault(f faults.Fault) {
	s := ln.sim
	n := s.nodes[f.Node]
	if n == nil {
		return
	}
	switch f.Kind {
	case faults.Crash:
		if n.dead {
			return
		}
		ln.failNode(f.Node)
	case faults.Recover:
		if !n.dead && n.slowFactor == 1 {
			return
		}
		ln.recoverNode(n)
	case faults.Slow:
		if n.dead {
			return
		}
		s.slowNode(n, f.Factor)
	default:
		return
	}
	fr := FaultRecord{Kind: f.Kind, Node: f.Node, At: ln.eng.Now()}
	ln.faultBuf = append(ln.faultBuf, fr)
	s.journalRecord(trace.CodeFaultInjected, "", string(f.Node), -1, fr.String())
}

// recoverNode brings a node back: capacity returns, its NIC revives (the
// link's alive closure reads node.dead), any slow-fault degradation
// clears, and contention refreezes. The node's executors stay dead — a
// recovered machine has capacity, not state; re-placing work on it is the
// control plane's job (ReassignRestarting / the failover round).
func (ln *simLane) recoverNode(n *simNode) {
	if n.dead {
		n.dead = false
		n.downtime += ln.eng.Now() - n.crashedAt
	}
	n.slowFactor = 1
	ln.sim.freezeNode(n)
}

// slowNode applies transient degradation: every service time on the node
// stretches by factor until it recovers.
func (s *Simulation) slowNode(n *simNode, factor float64) {
	n.slowFactor = factor
	s.freezeNode(n)
}

// handleSpoutReplay runs when a failed tree's backoff expires: the replay
// joins its spout's queue and the spout is woken if parked. If the spout
// died while the backoff was pending, the tree is abandoned and its held
// credit returned, so a later restart of the spout starts with honest
// max-pending accounting.
func (ln *simLane) handleSpoutReplay(t *simTask, key uint64, attempt int) {
	if t.dead {
		t.inFlight--
		ln.lostTrees++
		return
	}
	t.replayQ = append(t.replayQ, spoutReplay{key: key, attempt: attempt})
	if t.parked {
		t.parked = false
		ln.scheduleTask(0, evSpoutCycle, t)
	}
}

// Faults returns the fault events applied so far, in virtual-time order.
func (s *Simulation) Faults() []FaultRecord {
	out := make([]FaultRecord, len(s.faultLog))
	copy(out, s.faultLog)
	return out
}
