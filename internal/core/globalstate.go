package core

import (
	"fmt"
	"sort"
	"sync"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
)

// GlobalState is the paper's GlobalState module (§5.1): it tracks where
// every task of every topology is placed, the remaining resource
// availability of every node, and worker-slot occupancy. Nimbus owns one
// GlobalState and hands it to schedulers; schedulers read it and Nimbus
// applies accepted assignments atomically.
//
// Per-node state lives in slices addressed by the cluster's node index
// (cluster.Index), so a scheduler copies it in one pass (view) rather
// than through a map keyed by node ID.
//
// GlobalState is safe for concurrent use.
type GlobalState struct {
	mu        sync.Mutex
	cluster   *cluster.Cluster
	available []resource.Vector
	slots     [][]string // per node: slot index -> owning topology ("" = free); nil while failed
	// reserved remembers, per topology, what it took on each node it uses
	// so removal can release exactly what was taken.
	reserved    map[string][]reservation
	assignments map[string]*Assignment
	// pos is Apply's scratch, all -1 between calls: a node's position in
	// the reservation being built.
	pos []int
}

// reservation is one topology's total demand on one node.
type reservation struct {
	node int
	used resource.Vector
}

// NewGlobalState returns a GlobalState with every node fully available.
func NewGlobalState(c *cluster.Cluster) *GlobalState {
	s := &GlobalState{
		cluster:     c,
		available:   make([]resource.Vector, c.Size()),
		slots:       make([][]string, c.Size()),
		reserved:    make(map[string][]reservation),
		assignments: make(map[string]*Assignment),
		pos:         make([]int, c.Size()),
	}
	for i, n := range c.Nodes() {
		s.available[i] = n.Spec.Capacity
		s.slots[i] = make([]string, n.Spec.Slots)
		s.pos[i] = -1
	}
	return s
}

// Cluster returns the cluster this state tracks.
func (s *GlobalState) Cluster() *cluster.Cluster { return s.cluster }

// Available returns the remaining availability of a node. Soft axes may be
// negative when overcommitted by resource-blind schedulers.
func (s *GlobalState) Available(id cluster.NodeID) resource.Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.cluster.Index(id); ok {
		return s.available[i]
	}
	return resource.Vector{}
}

// AvailableAll returns a copy of the availability of every node, keyed by
// node ID.
func (s *GlobalState) AvailableAll() map[cluster.NodeID]resource.Vector {
	ids := s.cluster.NodeIDs()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[cluster.NodeID]resource.Vector, len(ids))
	for i, id := range ids {
		out[id] = s.available[i]
	}
	return out
}

// view copies every node's availability into avail and its lowest free
// worker slot (-1 when none) into slot, both indexed by node index, under
// one lock: a consistent picture for a scheduler to place against.
//
//rstorm:hotpath
func (s *GlobalState) view(avail []resource.Vector, slot []int) {
	s.mu.Lock()
	copy(avail, s.available)
	for i, sl := range s.slots {
		slot[i] = firstFree(sl)
	}
	s.mu.Unlock()
}

// firstFree returns the lowest free slot index, or -1.
func firstFree(sl []string) int {
	for i, owner := range sl {
		if owner == "" {
			return i
		}
	}
	return -1
}

// FreeSlots returns the free worker-slot indexes of a node, ascending.
func (s *GlobalState) FreeSlots(id cluster.NodeID) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for i, owner := range s.slotsOf(id) {
		if owner == "" {
			out = append(out, i)
		}
	}
	return out
}

// FirstFreeSlot returns the lowest free worker-slot index of a node and
// whether one exists. Unlike FreeSlots it allocates nothing.
func (s *GlobalState) FirstFreeSlot(id cluster.NodeID) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := firstFree(s.slotsOf(id))
	return i, i >= 0
}

// slotsOf returns a node's slot table, nil for unknown or failed nodes.
// Caller holds s.mu.
func (s *GlobalState) slotsOf(id cluster.NodeID) []string {
	if i, ok := s.cluster.Index(id); ok {
		return s.slots[i]
	}
	return nil
}

// SlotOwner returns the topology owning a slot, or "" if free or unknown.
func (s *GlobalState) SlotOwner(id cluster.NodeID, slot int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.slotsOf(id)
	if slot < 0 || slot >= len(sl) {
		return ""
	}
	return sl[slot]
}

// Assignment returns the recorded assignment of a topology, or nil.
func (s *GlobalState) Assignment(topo string) *Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.assignments[topo]
}

// Assignments returns all recorded assignments keyed by topology name.
func (s *GlobalState) Assignments() map[string]*Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*Assignment, len(s.assignments))
	for k, v := range s.assignments {
		out[k] = v
	}
	return out
}

// Topologies returns the names of all scheduled topologies, sorted.
func (s *GlobalState) Topologies() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.assignments))
	for name := range s.assignments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Apply atomically records an assignment, reserving resources and slots.
// It fails without side effects if the assignment references unknown nodes
// or slots, a slot owned by another topology, or if the topology is already
// scheduled. Soft over-reservation is permitted (availability may go
// negative on any axis) because resource-blind schedulers like default
// Storm do exactly that; hard-constraint enforcement is the scheduler's
// job at placement time.
func (s *GlobalState) Apply(topo *topology.Topology, a *Assignment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a.Topology != topo.Name() {
		return fmt.Errorf("assignment is for %q, topology is %q", a.Topology, topo.Name())
	}
	if _, dup := s.assignments[topo.Name()]; dup {
		return fmt.Errorf("topology %q is already scheduled", topo.Name())
	}
	if !a.Complete(topo) {
		return fmt.Errorf("assignment for %q is incomplete", topo.Name())
	}
	// Validate before mutating anything.
	for id, p := range a.Placements {
		i, ok := s.cluster.Index(p.Node)
		if !ok {
			return fmt.Errorf("task %d placed on unknown node %q", id, p.Node)
		}
		sl := s.slots[i]
		if p.Slot < 0 || p.Slot >= len(sl) {
			return fmt.Errorf("task %d placed on invalid slot %d of %q", id, p.Slot, p.Node)
		}
		if owner := sl[p.Slot]; owner != "" && owner != topo.Name() {
			return fmt.Errorf("slot %d of %q is owned by topology %q", p.Slot, p.Node, owner)
		}
	}

	// Sum demand per node in task order, so the float accumulation is the
	// same on every run.
	var res []reservation
	for _, task := range topo.Tasks() {
		p := a.Placements[task.ID]
		i, _ := s.cluster.Index(p.Node)
		k := s.pos[i]
		if k < 0 {
			k = len(res)
			s.pos[i] = k
			res = append(res, reservation{node: i})
		}
		res[k].used = res[k].used.Add(topo.TaskDemand(task))
		s.slots[i][p.Slot] = topo.Name()
	}
	for _, r := range res {
		s.pos[r.node] = -1
		s.available[r.node] = s.available[r.node].Sub(r.used)
	}
	s.reserved[topo.Name()] = res
	s.assignments[topo.Name()] = a
	return nil
}

// Remove releases everything a topology reserved. Removing an unknown
// topology is a no-op.
func (s *GlobalState) Remove(topoName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A topology owns slots only on the nodes it reserved: Apply claims
	// slots where it reserves, and ReleaseNode drops a node's slots and
	// its reservations together.
	for _, r := range s.reserved[topoName] {
		s.available[r.node] = s.available[r.node].Add(r.used)
		for k, owner := range s.slots[r.node] {
			if owner == topoName {
				s.slots[r.node][k] = ""
			}
		}
	}
	delete(s.reserved, topoName)
	delete(s.assignments, topoName)
}

// ReleaseNode marks a node failed: its slots and reservations disappear and
// its availability drops to zero, so removing an affected topology later
// credits nothing back to the dead node. Returns the topologies that had
// tasks on the node, sorted, so the caller can reschedule them.
func (s *GlobalState) ReleaseNode(id cluster.NodeID) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.cluster.Index(id)
	if !ok {
		return nil
	}
	var out []string
	for topoName, res := range s.reserved {
		for k, r := range res {
			if r.node == i {
				s.reserved[topoName] = append(res[:k], res[k+1:]...)
				out = append(out, topoName)
				break
			}
		}
	}
	s.available[i] = resource.Vector{}
	s.slots[i] = nil
	sort.Strings(out)
	return out
}

// RestoreNode brings a failed node back with full capacity and fresh slots.
func (s *GlobalState) RestoreNode(id cluster.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.cluster.Index(id)
	if !ok {
		return fmt.Errorf("unknown node %q", id)
	}
	n := s.cluster.Node(id)
	s.available[i] = n.Spec.Capacity
	s.slots[i] = make([]string, n.Spec.Slots)
	return nil
}
