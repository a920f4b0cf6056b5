package nimbus

import (
	"fmt"
	"sort"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/resource"
	"rstorm/internal/trace"
)

// The heartbeat failure detector closes the loop DetectFailures leaves
// open: DetectFailures only notices a supervisor whose *session* expired,
// and its repair is a full teardown — every task of every affected
// topology is requeued and rescheduled from scratch. The detector instead
// watches heartbeat progress (a wedged supervisor holds its session but
// stops publishing fresh sequence numbers), walks each node through
// healthy → suspect → dead with configurable patience, and repairs
// incrementally: a failover scheduling round re-places only the dead
// node's tasks via core.IncrementalReschedule's Restart option, leaving
// every healthy worker untouched. Recovered nodes are flap-damped — held
// out of the availability picture until they prove themselves with a run
// of fresh heartbeats — so a bouncing machine cannot churn placements on
// every bounce.

// DetectorConfig tunes the heartbeat failure detector.
type DetectorConfig struct {
	// SuspectAfter is the number of consecutive HeartbeatTick observations
	// without heartbeat progress before a healthy node turns suspect.
	// Suspicion is advisory (reported, never acted on). Default 2.
	SuspectAfter int
	// DeadAfter is the number of consecutive missed observations before a
	// node is declared dead and its tasks failed over. Session expiry
	// (presence gone from the store) is death immediately, regardless.
	// Default 4; clamped above SuspectAfter.
	DeadAfter int
	// FlapDamping is the number of consecutive fresh heartbeats a dead
	// node must show after returning before it is trusted with capacity
	// again. Until then it reads as zero availability to every scheduling
	// and failover round. Default 3.
	FlapDamping int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 4
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 1
	}
	if c.FlapDamping <= 0 {
		c.FlapDamping = 3
	}
	return c
}

// HealthState is a node's place in the detector's lifecycle.
type HealthState uint8

const (
	// HealthHealthy: heartbeats arriving on schedule.
	HealthHealthy HealthState = iota
	// HealthSuspect: SuspectAfter observations without progress.
	HealthSuspect
	// HealthDead: declared failed; tasks failed over, capacity released.
	HealthDead
	// HealthRecovering: heartbeating again after death, but still held
	// out of service until FlapDamping fresh beats accumulate.
	HealthRecovering
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthDead:
		return "dead"
	case HealthRecovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// nodeHealth is the detector's per-node record.
type nodeHealth struct {
	state   HealthState
	lastSeq int64
	missed  int // consecutive observations without progress
	healthy int // consecutive fresh beats while recovering
}

// detector is the failure detector's state, guarded by the Nimbus mutex.
type detector struct {
	cfg    DetectorConfig
	nodes  map[cluster.NodeID]*nodeHealth
	ticks  int
	events []FailoverEvent
}

// FailoverEvent records one topology's repair after a node death.
type FailoverEvent struct {
	// Node is the dead node; Topology the repaired tenant.
	Node     string `json:"node"`
	Topology string `json:"topology"`
	// Moves counts the tasks restarted onto surviving nodes. Zero with
	// Requeued set: the incremental failover found no feasible placement
	// and the topology fell back to a full reschedule.
	Moves    int  `json:"moves"`
	Requeued bool `json:"requeued,omitempty"`
	// Tick is the HeartbeatTick ordinal (1-based) that declared the death.
	Tick int `json:"tick"`
}

// NodeHealthStatus is one node's detector record, JSON-ready.
type NodeHealthStatus struct {
	Node    string `json:"node"`
	State   string `json:"state"`
	Missed  int    `json:"missed,omitempty"`
	Healthy int    `json:"healthy,omitempty"`
	LastSeq int64  `json:"lastSeq"`
}

// DetectorStatus is the snapshot served by the StatisticServer's /faults
// route.
type DetectorStatus struct {
	Enabled      bool               `json:"enabled"`
	SuspectAfter int                `json:"suspectAfter,omitempty"`
	DeadAfter    int                `json:"deadAfter,omitempty"`
	FlapDamping  int                `json:"flapDamping,omitempty"`
	Ticks        int                `json:"ticks,omitempty"`
	Nodes        []NodeHealthStatus `json:"nodes,omitempty"`
	Events       []FailoverEvent    `json:"events,omitempty"`
}

// EnableFailureDetector turns the heartbeat failure detector on. Opt-in:
// without it, Nimbus keeps its legacy behaviour (session expiry noticed
// by DetectFailures, full teardown repair), byte for byte.
func (n *Nimbus) EnableFailureDetector(cfg DetectorConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.detector = &detector{
		cfg:   cfg.withDefaults(),
		nodes: make(map[cluster.NodeID]*nodeHealth),
	}
}

// Failovers returns the failover history, oldest first. Nil when the
// detector is disabled or nothing has failed over.
func (n *Nimbus) Failovers() []FailoverEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.detector == nil || len(n.detector.events) == 0 {
		return nil
	}
	out := make([]FailoverEvent, len(n.detector.events))
	copy(out, n.detector.events)
	return out
}

// DetectorStatus snapshots the failure detector for operator tooling.
func (n *Nimbus) DetectorStatus() DetectorStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.detector
	if d == nil {
		return DetectorStatus{}
	}
	out := DetectorStatus{
		Enabled:      true,
		SuspectAfter: d.cfg.SuspectAfter,
		DeadAfter:    d.cfg.DeadAfter,
		FlapDamping:  d.cfg.FlapDamping,
		Ticks:        d.ticks,
		Events:       append([]FailoverEvent(nil), d.events...),
	}
	ids := make([]cluster.NodeID, 0, len(d.nodes))
	for id := range d.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := d.nodes[id]
		out.Nodes = append(out.Nodes, NodeHealthStatus{
			Node:    string(id),
			State:   h.state.String(),
			Missed:  h.missed,
			Healthy: h.healthy,
			LastSeq: h.lastSeq,
		})
	}
	return out
}

// HeartbeatTick runs one detector cycle: read every supervisor's presence
// and heartbeat sequence from the state store, advance each node's health
// state, fail over the tasks of nodes newly declared dead, and restore
// capacity to nodes that have finished their flap-damping hold. It
// returns the nodes declared dead this tick. A no-op until
// EnableFailureDetector.
//
// Call it on the master's heartbeat cadence; the suspect/dead thresholds
// are measured in these calls.
//
// A supervisor's heartbeat seq is the data version of its presence node
// /supervisors/<id>: registration creates the node (version 0, payload
// seq 0), each Heartbeat is exactly one Set, a rejoin is a fresh Create,
// and nothing else writes the node. So one ChildVersions call reads every
// supervisor's presence and progress, and no payload is decoded.
func (n *Nimbus) HeartbeatTick() []cluster.NodeID {
	// Read presence outside the Nimbus lock; the store has its own.
	// seqs[i] is the heartbeat seq of the node at cluster index i, or -1
	// when it has no presence node.
	seqs := make([]int64, n.cluster.Size())
	for i := range seqs {
		seqs[i] = -1
	}
	if children, err := n.store.ChildVersions(supervisorsPath); err == nil {
		for _, c := range children {
			if i, ok := n.cluster.Index(cluster.NodeID(c.Name)); ok {
				seqs[i] = c.Version
			}
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.detector
	if d == nil {
		return nil
	}
	d.ticks++
	var newlyDead, recovered []cluster.NodeID
	for i, seq := range seqs { // declaration order: deterministic
		id, here := n.cluster.NodeAt(i).ID, seq >= 0
		h := d.nodes[id]
		if h == nil {
			if !here {
				continue // never joined: not the detector's business
			}
			// First sight: the registration itself is the first beat.
			d.nodes[id] = &nodeHealth{state: HealthHealthy, lastSeq: seq}
			continue
		}
		switch {
		case !here:
			// Presence gone: the session expired. No patience needed —
			// the store's liveness contract is already broken.
			if h.state != HealthDead {
				h.state = HealthDead
				h.missed = 0
				h.healthy = 0
				newlyDead = append(newlyDead, id)
				n.journalRecord(trace.CodeNodeDead, "", string(id), "session-expired")
			}
		case h.state == HealthDead || h.state == HealthRecovering:
			if seq != h.lastSeq {
				h.lastSeq = seq
				h.state = HealthRecovering
				h.healthy++
				if h.healthy >= d.cfg.FlapDamping {
					h.state = HealthHealthy
					h.missed = 0
					h.healthy = 0
					recovered = append(recovered, id)
				}
			} else {
				// Stalled again mid-recovery: back to dead, progress
				// forfeited. Its tasks already moved, so no new failover.
				h.state = HealthDead
				h.healthy = 0
			}
		default: // healthy or suspect
			if seq != h.lastSeq {
				h.lastSeq = seq
				h.missed = 0
				h.state = HealthHealthy
			} else {
				h.missed++
				if h.missed >= d.cfg.DeadAfter {
					h.state = HealthDead
					h.healthy = 0
					newlyDead = append(newlyDead, id)
					n.journalRecord(trace.CodeNodeDead, "", string(id),
						fmt.Sprintf("missed=%d", h.missed))
				} else if h.missed >= d.cfg.SuspectAfter {
					if h.state != HealthSuspect {
						n.journalRecord(trace.CodeNodeSuspect, "", string(id),
							fmt.Sprintf("missed=%d", h.missed))
					}
					h.state = HealthSuspect
				}
			}
		}
	}
	for _, id := range newlyDead {
		// The detector owns the death from here; DetectFailures must not
		// double-handle it if the session also expires later.
		delete(n.alive, id)
		n.failoverNodeLocked(id)
	}
	for _, id := range recovered {
		_ = n.state.RestoreNode(id)
		n.alive[id] = true
		n.logf("node %s passed flap damping (%d fresh beats); capacity restored",
			id, d.cfg.FlapDamping)
		n.journalRecord(trace.CodeNodeRejoin, "", string(id),
			fmt.Sprintf("beats=%d", d.cfg.FlapDamping))
	}
	return newlyDead
}

// untrustedAvailability is the failover planner's availability picture:
// the global state's remaining capacity with every node the detector
// does not currently trust (dead or still in its flap-damping hold)
// zeroed out, so no restart or move can target it.
func (n *Nimbus) untrustedAvailability() map[cluster.NodeID]resource.Vector {
	avail := n.state.AvailableAll()
	for id, h := range n.detector.nodes {
		if h.state == HealthDead || h.state == HealthRecovering {
			avail[id] = resource.Vector{}
		}
	}
	return avail
}

// failoverNodeLocked repairs every topology with tasks on a dead node:
// one incremental failover round per topology, re-placing only the dead
// node's tasks (live workers frozen in place) on detector-trusted
// capacity. A topology whose restarts cannot all be placed falls back to
// the legacy repair — assignment torn down, topology requeued for a full
// scheduling round once capacity returns. Caller holds n.mu.
func (n *Nimbus) failoverNodeLocked(id cluster.NodeID) {
	d := n.detector
	affected := n.state.ReleaseNode(id)
	n.logf("failure detector declared %s dead; %d topologies affected", id, len(affected))
	ras, isRAS := n.scheduler.(*core.ResourceAwareScheduler)
	for _, name := range affected {
		topo := n.topologies[name]
		current := n.state.Assignment(name)
		if topo == nil || current == nil {
			continue
		}
		restart := make(map[int]bool)
		frozen := make(map[int]bool)
		for _, task := range topo.Tasks() {
			if current.Placements[task.ID].Node == id {
				restart[task.ID] = true
			} else {
				frozen[task.ID] = true
			}
		}
		// Plan with this topology's own reservation lifted, exactly like
		// AdaptiveRebalance; Remove also frees its slots on live nodes so
		// SlotFor can re-offer them.
		n.state.Remove(name)
		requeue := func() {
			_ = n.store.Delete(assignmentsPath + "/" + name)
			n.dropPendingLocked(name)
			n.pending = append(n.pending, name)
			d.events = append(d.events, FailoverEvent{
				Node: string(id), Topology: name, Requeued: true, Tick: d.ticks,
			})
			n.logf("failover of %q off %s infeasible; requeued for full reschedule", name, id)
			n.journalRecord(trace.CodeFailoverRound, name, string(id),
				fmt.Sprintf("tick=%d requeued", d.ticks))
		}
		if !isRAS {
			// Resource-blind schedulers have no incremental pass: legacy
			// teardown repair.
			requeue()
			continue
		}
		next, moves, err := ras.IncrementalReschedule(topo, n.cluster, current, core.IncrementalOptions{
			Available: n.untrustedAvailability(),
			Restart:   restart,
			Frozen:    frozen,
			SlotFor: func(nid cluster.NodeID) (int, bool) {
				return n.state.FirstFreeSlot(nid)
			},
		})
		if err == nil {
			// A restart the pass could not place stays on the dead node;
			// an assignment touching a dead node cannot be applied.
			for tid := range restart {
				if next.Placements[tid].Node == id {
					err = errUnplaceableRestart
					break
				}
			}
		}
		if err == nil {
			err = n.state.Apply(topo, next)
		}
		if err != nil {
			requeue()
			continue
		}
		n.persistAssignment(name, next)
		d.events = append(d.events, FailoverEvent{
			Node: string(id), Topology: name, Moves: len(moves), Tick: d.ticks,
		})
		n.logf("failover of %q: restarted %d tasks off %s", name, len(moves), id)
		n.journalRecord(trace.CodeFailoverRound, name, string(id),
			fmt.Sprintf("tick=%d moves=%d", d.ticks, len(moves)))
	}
}

// errUnplaceableRestart marks a failover plan that left a restart on the
// dead node (no surviving capacity could fit it).
var errUnplaceableRestart = errString("failover restart unplaceable")

type errString string

func (e errString) Error() string { return string(e) }
