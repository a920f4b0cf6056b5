package core

import (
	"fmt"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
)

// ResourceAwareScheduler implements R-Storm's scheduling algorithm (§4):
//
//  1. Task selection (Algorithm 3): a BFS traversal from the spouts yields
//     a component ordering; tasks are drawn round-robin from that ordering
//     so tasks of adjacent components are scheduled in close succession.
//  2. Node selection (Algorithm 4): the first task lands on the node with
//     the most available resources within the rack with the most available
//     resources (the ref node). Every other task lands on the node
//     minimizing the weighted Euclidean distance between the task's demand
//     and the node's remaining availability, with the bandwidth axis
//     replaced by the network distance from the ref node, excluding nodes
//     that would violate a hard constraint.
//
// On each node it uses, the scheduler packs all of a topology's tasks into
// a single worker process, maximizing intra-process communication.
type ResourceAwareScheduler struct {
	weights resource.Weights
	classes resource.Classes
	// ordering computes the task schedule order; replaced in ablation
	// tests to measure the BFS ordering's contribution.
	ordering func(*topology.Topology) []topology.Task
}

var _ Scheduler = (*ResourceAwareScheduler)(nil)

// RASOption configures a ResourceAwareScheduler.
type RASOption func(*ResourceAwareScheduler)

// WithWeights overrides the soft-constraint weights (§4: S' = Weights·S).
func WithWeights(w resource.Weights) RASOption {
	return func(s *ResourceAwareScheduler) { s.weights = w }
}

// WithClasses overrides the hard/soft classification of the resource axes.
func WithClasses(c resource.Classes) RASOption {
	return func(s *ResourceAwareScheduler) { s.classes = c }
}

// WithTaskOrdering overrides task selection; used by the task-ordering
// ablation to compare BFS against alternatives.
func WithTaskOrdering(f func(*topology.Topology) []topology.Task) RASOption {
	return func(s *ResourceAwareScheduler) { s.ordering = f }
}

// NewResourceAwareScheduler returns an R-Storm scheduler with the paper's
// defaults: memory hard, CPU and bandwidth soft, normalized weights.
func NewResourceAwareScheduler(opts ...RASOption) *ResourceAwareScheduler {
	s := &ResourceAwareScheduler{
		weights:  resource.DefaultWeights(),
		classes:  resource.DefaultClasses(),
		ordering: TaskOrdering,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Name implements Scheduler.
func (s *ResourceAwareScheduler) Name() string { return "r-storm" }

// TaskOrdering implements Algorithm 3 (TaskSelection): iterate the BFS
// component ordering repeatedly, drawing one task from each component that
// still has tasks, until every task is ordered. Adjacent components'
// tasks end up interleaved and near each other in the ordering.
func TaskOrdering(topo *topology.Topology) []topology.Task {
	order := topo.BFSOrder()
	remaining := make([][]topology.Task, len(order)) // by BFS position
	for i, comp := range order {
		remaining[i] = topo.TasksOf(comp)
	}
	out := make([]topology.Task, 0, topo.TotalTasks())
	for len(out) < topo.TotalTasks() {
		drew := false
		for i, tasks := range remaining {
			if len(tasks) == 0 {
				continue
			}
			out = append(out, tasks[0])
			remaining[i] = tasks[1:]
			drew = true
		}
		if !drew {
			break // defensive: cannot happen on a validated topology
		}
	}
	return out
}

// placementView is one placement pass's working set, indexed by cluster
// node index, so the O(tasks × nodes) inner loop of selectNode runs over
// flat slices with no map operations and no locking:
//
//   - avail is the pass's copy of node availability, debited as tasks are
//     placed (GlobalState itself changes only when the caller applies the
//     finished assignment atomically).
//   - slot is each node's worker slot for this topology, -1 when it has
//     none; the scheduler packs all of a topology's tasks on a node into
//     one worker.
//   - netdist is the network distance from the ref node, fixed once the
//     ref node is chosen (Algorithm 4 picks it once per pass).
type placementView struct {
	avail   []resource.Vector
	slot    []int
	netdist []float64
}

// refDistances picks the ref node over avail and fills netdist with each
// node's network distance from it.
func (s *ResourceAwareScheduler) refDistances(c *cluster.Cluster, avail []resource.Vector, netdist []float64) {
	ref := s.pickRefNode(c, avail)
	for i := range netdist {
		if ref < 0 {
			// No rack or node qualified (every total at or below -1 after
			// heavy overcommit): no node is the ref, so every node is the
			// inter-rack distance away.
			netdist[i] = c.Network().DistanceInterRack
		} else {
			netdist[i] = c.NetworkDistanceAt(ref, i)
		}
	}
}

// Schedule implements Scheduler.
func (s *ResourceAwareScheduler) Schedule(
	topo *topology.Topology,
	c *cluster.Cluster,
	state *GlobalState,
) (*Assignment, error) {
	if err := s.weights.Validate(); err != nil {
		return nil, fmt.Errorf("scheduler weights: %w", err)
	}
	if err := s.classes.Validate(); err != nil {
		return nil, fmt.Errorf("scheduler classes: %w", err)
	}
	if c != state.Cluster() {
		return nil, fmt.Errorf("scheduling %q: state tracks a different cluster", topo.Name())
	}
	hard := s.classes.Hard()
	v := &placementView{
		avail:   make([]resource.Vector, c.Size()),
		slot:    make([]int, c.Size()),
		netdist: make([]float64, c.Size()),
	}
	state.view(v.avail, v.slot)
	s.refDistances(c, v.avail, v.netdist)

	// Most calls in a full cluster fail part-way, so the pass records node
	// indexes and builds the assignment only once every task has a node.
	order := s.ordering(topo)
	picks := make([]int, len(order))
	for k, task := range order {
		demand := topo.TaskDemand(task)
		ni, ok := s.selectNode(v, hard, demand)
		if !ok {
			return nil, fmt.Errorf(
				"task %s (demand %v): %w", task, demand, ErrInsufficientResources)
		}
		picks[k] = ni
		v.avail[ni] = v.avail[ni].Sub(demand)
	}
	assignment := &Assignment{
		Topology:   topo.Name(),
		Scheduler:  s.Name(),
		Placements: make(map[int]Placement, len(order)),
	}
	for k, task := range order {
		ni := picks[k]
		assignment.Place(task.ID, Placement{Node: c.NodeAt(ni).ID, Slot: v.slot[ni]})
	}
	return assignment, nil
}

// pickRefNode implements Algorithm 4 lines 6–9: the index of the node with
// the most available resources inside the rack with the most available
// resources, or -1 when no rack or node total exceeds -1. Resource totals
// are compared after weight normalization so axes are commensurable. Racks
// are compared in Racks order and nodes in declaration order, and each
// rack's total sums its nodes in declaration order, so ties and float
// rounding resolve the same way on every run.
func (s *ResourceAwareScheduler) pickRefNode(c *cluster.Cluster, avail []resource.Vector) int {
	rackSum := make([]float64, c.RackCount())
	for i, a := range avail {
		rackSum[c.RackIndex(i)] += s.weights.Apply(a).Total()
	}
	bestRack := -1
	bestRackTotal := -1.0
	for r, sum := range rackSum {
		if sum > bestRackTotal {
			bestRackTotal = sum
			bestRack = r
		}
	}
	best := -1
	bestTotal := -1.0
	for i, a := range avail {
		if c.RackIndex(i) != bestRack {
			continue
		}
		if total := s.weights.Apply(a).Total(); total > bestTotal {
			bestTotal = total
			best = i
		}
	}
	return best
}

// selectNode implements Algorithm 4 line 10: the eligible node minimizing
// the weighted Euclidean distance between task demand and node
// availability, with the network distance from the ref node on the
// bandwidth axis. Ties break toward cluster declaration order for
// determinism.
//
//rstorm:hotpath
func (s *ResourceAwareScheduler) selectNode(
	v *placementView, hard resource.HardSet, demand resource.Vector,
) (int, bool) {
	best := -1
	bestDist := -1.0
	for i, a := range v.avail {
		if !hard.Satisfies(a, demand) || v.slot[i] < 0 {
			continue
		}
		d := resource.Distance(demand, a, v.netdist[i], s.weights)
		if bestDist < 0 || d < bestDist {
			bestDist = d
			best = i
		}
	}
	return best, bestDist >= 0
}
