package core

import (
	"fmt"
	"sync"

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
//
// A ResourceAwareScheduler is safe for concurrent use and must not be
// copied after first use.
type ResourceAwareScheduler struct {
	weights resource.Weights
	classes resource.Classes
	// ordering replaces Algorithm 3 in the task-ordering ablation; nil
	// means TaskOrdering.
	ordering func(*topology.Topology) []topology.Task
	// scratch holds *placementView values between Schedule calls. It is
	// the scheduler's, not the package's, so concurrent runs each with
	// their own scheduler share nothing, and its buffers grow to the
	// largest cluster and topology this scheduler has placed.
	scratch sync.Pool
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
		weights: resource.DefaultWeights(),
		classes: resource.DefaultClasses(),
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
// tasks end up interleaved and near each other in the ordering. The slice
// is fresh.
func TaskOrdering(topo *topology.Topology) []topology.Task {
	return appendTaskOrdering(make([]topology.Task, 0, topo.TotalTasks()), topo)
}

// appendTaskOrdering appends Algorithm 3's ordering to dst: round r draws
// task r of every component, in BFS order, that has more than r tasks.
func appendTaskOrdering(dst []topology.Task, topo *topology.Topology) []topology.Task {
	comps := topo.BFSTasks()
	for r := 0; ; r++ {
		drew := false
		for _, tasks := range comps {
			if r < len(tasks) {
				dst = append(dst, tasks[r])
				drew = true
			}
		}
		if !drew {
			return dst
		}
	}
}

// appendOrder appends the task order this scheduler places in to dst:
// Algorithm 3, or the ablation's ordering when one replaced it.
func (s *ResourceAwareScheduler) appendOrder(dst []topology.Task, topo *topology.Topology) []topology.Task {
	if s.ordering != nil {
		return append(dst, s.ordering(topo)...)
	}
	return appendTaskOrdering(dst, topo)
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
//   - order is the task order and picks[k] the node index chosen for
//     order[k].
//
// Schedule takes one from the scheduler's pool and returns it when done,
// so a pass allocates none of these once the pool holds buffers of the
// cluster's and topology's size.
type placementView struct {
	avail   []resource.Vector
	slot    []int
	netdist []float64
	order   []topology.Task
	picks   []int
}

// resize sets the node-indexed slices to n nodes, reusing their arrays
// when they are large enough, and empties the task order.
func (v *placementView) resize(n int) {
	if cap(v.avail) < n {
		v.avail = make([]resource.Vector, n)
		v.slot = make([]int, n)
		v.netdist = make([]float64, n)
	}
	v.avail, v.slot, v.netdist = v.avail[:n], v.slot[:n], v.netdist[:n]
	v.order = v.order[:0]
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

// Schedule implements Scheduler. Its scratch comes from the scheduler's
// pool, so once the pool holds scratch of the cluster's and topology's
// size a call that fails for want of resources allocates only its error
// and pickRefNode's per-rack sums; the error's text is built only if it
// is read.
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
	v, _ := s.scratch.Get().(*placementView)
	if v == nil {
		v = new(placementView)
	}
	defer s.scratch.Put(v)
	v.resize(c.Size())
	state.view(v.avail, v.slot)
	s.refDistances(c, v.avail, v.netdist)

	// Most calls in a full cluster fail part-way, so the pass records node
	// indexes and builds the assignment only once every task has a node.
	v.order = s.appendOrder(v.order, topo)
	if cap(v.picks) < len(v.order) {
		v.picks = make([]int, len(v.order))
	}
	v.picks = v.picks[:len(v.order)]
	if k := s.place(v, topo, s.classes.Hard()); k >= 0 {
		task := v.order[k]
		return nil, &insufficientError{task: task, demand: topo.TaskDemand(task)}
	}
	assignment := &Assignment{
		Topology:   topo.Name(),
		Scheduler:  s.Name(),
		Placements: make(map[int]Placement, len(v.order)),
	}
	for k, task := range v.order {
		ni := v.picks[k]
		assignment.Place(task.ID, Placement{Node: c.NodeAt(ni).ID, Slot: v.slot[ni]})
	}
	return assignment, nil
}

// place runs Algorithm 4 line 10 down the task order: each task goes to
// selectNode's choice, which is debited and recorded in picks. It returns
// the position of the first task no node can host, or -1 once every task
// has a node.
//
//rstorm:hotpath
func (s *ResourceAwareScheduler) place(v *placementView, topo *topology.Topology, hard resource.HardSet) int {
	for k, task := range v.order {
		demand := topo.TaskDemand(task)
		ni, ok := s.selectNode(v, hard, demand)
		if !ok {
			return k
		}
		v.picks[k] = ni
		v.avail[ni] = v.avail[ni].Sub(demand)
	}
	return -1
}

// insufficientError is Schedule's failure: no node can host task's demand
// without violating a hard constraint. Most trials in a full cluster fail
// and their errors are dropped unread, so the text is built only when
// Error is called; it unwraps to ErrInsufficientResources.
type insufficientError struct {
	task   topology.Task
	demand resource.Vector
}

func (e *insufficientError) Error() string {
	return fmt.Sprintf("task %s (demand %v): %v", e.task, e.demand, ErrInsufficientResources)
}

func (e *insufficientError) Unwrap() error { return ErrInsufficientResources }

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
