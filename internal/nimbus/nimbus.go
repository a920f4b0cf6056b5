// Package nimbus models Storm's master daemon (§2): it tracks supervisor
// membership through the state store (the Zookeeper analogue), accepts
// topology submissions, periodically invokes the configured scheduler
// (§5: "The Storm scheduler is invoked by Nimbus periodically"), and
// reschedules topologies when supervisors fail.
package nimbus

import (
	"fmt"
	"sort"
	"sync"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/statestore"
	"rstorm/internal/topology"
)

// State-store layout.
const (
	supervisorsPath = "/supervisors"
	topologiesPath  = "/topologies"
	assignmentsPath = "/assignments"
)

// EvictionEvent is one entry of the master's eviction history: a tenant
// unassigned by a scheduling round to admit a higher-priority arrival.
type EvictionEvent struct {
	// Victim is the evicted topology; Priority its priority at eviction.
	Victim   string `json:"victim"`
	Priority int    `json:"priority"`
	// For is the admitted topology the eviction made room for, and
	// ForPriority its priority.
	For         string `json:"for"`
	ForPriority int    `json:"forPriority"`
	// Round is the scheduling round (0-based) the eviction happened in.
	Round int `json:"round"`
}

// Nimbus is the master daemon. It is safe for concurrent use.
type Nimbus struct {
	mu         sync.Mutex
	cluster    *cluster.Cluster
	store      *statestore.Store
	state      *core.GlobalState
	scheduler  core.Scheduler
	topologies map[string]*topology.Topology
	pending    []string
	events     []string

	// Multi-tenant metadata: per-topology priority and admission sequence
	// (FIFO tie-break and deterministic eviction order), the monotonically
	// increasing submission counter, the round counter, and the eviction
	// history.
	priorities map[string]int
	seqs       map[string]int
	nextSeq    int
	rounds     int
	evictions  []EvictionEvent

	// detector is the heartbeat failure detector (detector.go), the
	// master's only view of supervisor liveness.
	detector *detector
}

// New returns a Nimbus over the cluster using the given scheduler. Nodes
// contribute resources only after their supervisor registers (§5: machines
// "send their resource availability to Nimbus").
func New(c *cluster.Cluster, sched core.Scheduler) (*Nimbus, error) {
	store := statestore.New()
	for _, p := range []string{supervisorsPath, topologiesPath, assignmentsPath} {
		if err := store.Create(p, nil, 0); err != nil {
			return nil, fmt.Errorf("init store: %w", err)
		}
	}
	state := core.NewGlobalState(c)
	for _, id := range c.NodeIDs() {
		state.ReleaseNode(id) // unavailable until its supervisor joins
	}
	return &Nimbus{
		cluster:    c,
		store:      store,
		state:      state,
		scheduler:  sched,
		topologies: make(map[string]*topology.Topology),
		priorities: make(map[string]int),
		seqs:       make(map[string]int),
		detector: &detector{
			cfg:   DetectorConfig{}.withDefaults(),
			nodes: make(map[cluster.NodeID]*nodeHealth),
		},
	}, nil
}

// Store exposes the coordination store (for supervisors and tests).
func (n *Nimbus) Store() *statestore.Store { return n.store }

// State exposes the global scheduling state.
func (n *Nimbus) State() *core.GlobalState { return n.state }

// AliveSupervisors returns the registered supervisor node IDs, sorted.
func (n *Nimbus) AliveSupervisors() []cluster.NodeID {
	names, err := n.store.Children(supervisorsPath)
	if err != nil {
		return nil
	}
	out := make([]cluster.NodeID, 0, len(names))
	for _, name := range names {
		out = append(out, cluster.NodeID(name))
	}
	return out
}

// SubmitTopology queues a topology for scheduling at the next round, at
// the priority the topology itself declares (Builder.SetPriority; zero
// means none — plain FIFO admission).
func (n *Nimbus) SubmitTopology(topo *topology.Topology) error {
	return n.SubmitTopologyWithPriority(topo, topo.Priority())
}

// SubmitTopologyWithPriority queues a topology at an explicit priority,
// overriding the topology's own declaration — the operator-facing knob
// (Storm's topology.priority, inverted: higher wins here). A
// higher-priority submission is admitted before lower-priority pending
// work and may evict lower-priority running tenants when the cluster is
// full.
func (n *Nimbus) SubmitTopologyWithPriority(topo *topology.Topology, priority int) error {
	if priority < 0 {
		return fmt.Errorf("priority %d is negative", priority)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	name := topo.Name()
	if _, dup := n.topologies[name]; dup {
		return fmt.Errorf("topology %q already submitted", name)
	}
	if err := n.store.Create(topologiesPath+"/"+name, []byte(name), 0); err != nil {
		return fmt.Errorf("register topology: %w", err)
	}
	n.topologies[name] = topo
	n.priorities[name] = priority
	n.seqs[name] = n.nextSeq
	n.nextSeq++
	n.pending = append(n.pending, name)
	if priority > 0 {
		n.logf("submitted topology %q (%d tasks, priority %d)", name, topo.TotalTasks(), priority)
	} else {
		n.logf("submitted topology %q (%d tasks)", name, topo.TotalTasks())
	}
	return nil
}

// TopologyPriority returns a submitted topology's priority (zero when
// unset or unknown).
func (n *Nimbus) TopologyPriority(name string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.priorities[name]
}

// Evictions returns the master's eviction history, oldest first.
func (n *Nimbus) Evictions() []EvictionEvent {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]EvictionEvent, len(n.evictions))
	copy(out, n.evictions)
	return out
}

// KillTopology releases a topology's resources and forgets it.
func (n *Nimbus) KillTopology(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.topologies[name]; !ok {
		return fmt.Errorf("topology %q is not submitted", name)
	}
	n.state.Remove(name)
	delete(n.topologies, name)
	delete(n.priorities, name)
	delete(n.seqs, name)
	n.dropPendingLocked(name)
	_ = n.store.Delete(assignmentsPath + "/" + name)
	_ = n.store.Delete(topologiesPath + "/" + name)
	n.logf("killed topology %q", name)
	return nil
}

// Assignment returns the recorded assignment of a topology, or nil.
func (n *Nimbus) Assignment(name string) *core.Assignment {
	return n.state.Assignment(name)
}

// Pending returns the names of unscheduled topologies, in submission order.
func (n *Nimbus) Pending() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.pending))
	copy(out, n.pending)
	return out
}

// RunSchedulingRound runs one cluster-level scheduling pass
// (core.ClusterSchedule): pending topologies are admitted in descending
// priority (FIFO within a priority), and an infeasible higher-priority
// arrival may evict lower-priority running tenants — each victim's
// complete assignment is torn down and the victim re-queued as pending,
// so it is rescheduled in full once capacity recovers. It returns the
// names scheduled this round; topologies that cannot be placed (even
// after permissible evictions) stay pending with the error logged,
// matching Nimbus's periodic retry behaviour. With every priority zero
// this is exactly the old FIFO round.
func (n *Nimbus) RunSchedulingRound() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	round := n.rounds
	n.rounds++

	var pending []core.Tenant
	for _, name := range n.pending {
		topo := n.topologies[name]
		if topo == nil {
			continue
		}
		pending = append(pending, core.Tenant{
			Topo:     topo,
			Priority: n.priorities[name],
			Seq:      n.seqs[name],
		})
	}
	if len(pending) == 0 {
		n.pending = nil
		return nil
	}
	// Build the active-tenant list in sorted name order: it feeds
	// eviction-victim selection inside ClusterSchedule, so map-iteration
	// order here would make placement decisions run-dependent.
	names := make([]string, 0, len(n.topologies))
	for name := range n.topologies {
		names = append(names, name)
	}
	sort.Strings(names)
	var active []core.Tenant
	for _, name := range names {
		if n.state.Assignment(name) == nil {
			continue
		}
		active = append(active, core.Tenant{
			Topo:     n.topologies[name],
			Priority: n.priorities[name],
			Seq:      n.seqs[name],
		})
	}

	res := core.ClusterSchedule(n.scheduler, n.cluster, n.state, pending, active)

	// Tear down evicted store state and record the history, in eviction
	// order.
	var requeued []string
	for _, e := range res.Evicted {
		_ = n.store.Delete(assignmentsPath + "/" + e.Victim)
		n.evictions = append(n.evictions, EvictionEvent{
			Victim:      e.Victim,
			Priority:    e.Priority,
			For:         e.For,
			ForPriority: n.priorities[e.For],
			Round:       round,
		})
		requeued = append(requeued, e.Victim)
	}
	// Log per-tenant outcomes in the pass's consideration order — with
	// every priority zero this interleaves scheduled and failed lines
	// exactly as the FIFO round it replaced did. An admission's evictions
	// log immediately before its scheduled line.
	considered := append([]string(nil), res.ScheduledOrder...)
	considered = append(considered, res.FailedOrder...)
	sort.SliceStable(considered, func(i, j int) bool {
		if n.priorities[considered[i]] != n.priorities[considered[j]] {
			return n.priorities[considered[i]] > n.priorities[considered[j]]
		}
		return n.seqs[considered[i]] < n.seqs[considered[j]]
	})
	for _, name := range considered {
		if a, ok := res.Scheduled[name]; ok {
			for _, e := range res.Evicted {
				if e.For == name {
					n.logf("evicted topology %q (priority %d) to admit %q (priority %d); re-queued",
						e.Victim, e.Priority, e.For, n.priorities[e.For])
				}
			}
			n.persistAssignment(name, a)
			n.logf("scheduled %q on %d nodes via %s", name, len(a.NodesUsed()), a.Scheduler)
			continue
		}
		n.logf("scheduling %q failed: %v", name, res.Failed[name])
	}

	// Pending set for the next round. The list order is cosmetic
	// (admission order is always priority, then submission sequence):
	// an evicted victim keeps its original sequence, so within its
	// priority it retains submission seniority over later arrivals —
	// losing its slot to a higher priority does not also forfeit its
	// place in line.
	var still []string
	for _, name := range n.pending {
		if _, ok := res.Scheduled[name]; !ok && n.topologies[name] != nil {
			still = append(still, name)
		}
	}
	n.pending = append(still, requeued...)
	return res.ScheduledOrder
}

// Tick is one periodic master cycle: a failure-detector cycle, then a
// scheduling round.
func (n *Nimbus) Tick() []string {
	n.HeartbeatTick()
	return n.RunSchedulingRound()
}

// Events returns the master's action log.
func (n *Nimbus) Events() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.events))
	copy(out, n.events)
	return out
}

// persistAssignment writes an assignment to the coordination store,
// creating or overwriting its node.
func (n *Nimbus) persistAssignment(name string, a *core.Assignment) {
	data, err := EncodeAssignment(a)
	if err != nil {
		return
	}
	path := assignmentsPath + "/" + name
	if n.store.Exists(path) {
		_ = n.store.Set(path, data)
	} else {
		_ = n.store.Create(path, data, 0)
	}
}

func (n *Nimbus) dropPendingLocked(name string) {
	out := n.pending[:0]
	for _, p := range n.pending {
		if p != name {
			out = append(out, p)
		}
	}
	n.pending = out
}

func (n *Nimbus) logf(format string, args ...any) {
	n.events = append(n.events, fmt.Sprintf(format, args...))
}
