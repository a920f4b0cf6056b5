package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// This file keeps the map-based R-Storm placement path — Schedule,
// pickRefNode, selectNode and TaskOrdering as they were before GlobalState
// and the scheduler moved to index-addressed slices — as the reference the
// index-addressed path must match decision for decision. Only the names
// differ from the original, and referenceSchedule calls the reference
// ordering and hard-constraint check instead of the scheduler's own.

func referenceTaskOrdering(topo *topology.Topology) []topology.Task {
	order := topo.BFSOrder()
	remaining := make(map[string][]topology.Task, len(order))
	for _, comp := range order {
		remaining[comp] = topo.TasksOf(comp)
	}
	out := make([]topology.Task, 0, topo.TotalTasks())
	for len(out) < topo.TotalTasks() {
		drew := false
		for _, comp := range order {
			tasks := remaining[comp]
			if len(tasks) == 0 {
				continue
			}
			out = append(out, tasks[0])
			remaining[comp] = tasks[1:]
			drew = true
		}
		if !drew {
			break // defensive: cannot happen on a validated topology
		}
	}
	return out
}

func referenceSatisfiesHard(avail, demand resource.Vector, classes resource.Classes) bool {
	for _, a := range resource.Axes() {
		if classes[a] == resource.Hard && resource.Component(avail, a) < resource.Component(demand, a) {
			return false
		}
	}
	return true
}

const (
	refSlotUnknown = -1
	refSlotNone    = -2
)

type referenceSchedState struct {
	ids     []cluster.NodeID
	avail   []resource.Vector
	netdist []float64
	slot    []int
	state   *GlobalState
}

func (ss *referenceSchedState) hasFreeSlot(i int) bool {
	if ss.slot[i] == refSlotUnknown {
		if free, ok := ss.state.FirstFreeSlot(ss.ids[i]); ok {
			ss.slot[i] = free
		} else {
			ss.slot[i] = refSlotNone
		}
	}
	return ss.slot[i] >= 0
}

func (s *ResourceAwareScheduler) referenceSchedule(
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

	availMap := state.AvailableAll() // scratch copy; Apply happens later, atomically
	ids := c.NodeIDs()
	ss := &referenceSchedState{
		ids:     ids,
		avail:   make([]resource.Vector, len(ids)),
		netdist: make([]float64, len(ids)),
		slot:    make([]int, len(ids)),
		state:   state,
	}
	for i, id := range ids {
		ss.avail[i] = availMap[id]
		ss.slot[i] = refSlotUnknown
	}

	assignment := NewAssignment(topo.Name(), s.Name())
	haveRef := false

	for _, task := range referenceTaskOrdering(topo) {
		demand := topo.TaskDemand(task)
		if !haveRef {
			// The ref node is chosen once, before any availability is
			// consumed, so availMap still matches ss.avail here.
			refNode := s.referencePickRefNode(c, availMap)
			for i, id := range ids {
				ss.netdist[i] = c.NetworkDistance(refNode, id)
			}
			haveRef = true
		}
		ni, ok := s.referenceSelectNode(ss, demand)
		if !ok {
			return nil, fmt.Errorf(
				"task %s (demand %v): %w", task, demand, ErrInsufficientResources)
		}
		assignment.Place(task.ID, Placement{Node: ids[ni], Slot: ss.slot[ni]})
		ss.avail[ni] = ss.avail[ni].Sub(demand)
	}
	return assignment, nil
}

func (s *ResourceAwareScheduler) referencePickRefNode(
	c *cluster.Cluster,
	avail map[cluster.NodeID]resource.Vector,
) cluster.NodeID {
	totals := make(map[cluster.NodeID]float64, len(avail))
	for id, a := range avail {
		totals[id] = s.weights.Apply(a).Total()
	}
	var bestRack cluster.RackID
	bestRackTotal := -1.0
	for _, rack := range c.Racks() {
		var sum float64
		for _, id := range c.NodesInRack(rack) {
			sum += totals[id]
		}
		if sum > bestRackTotal {
			bestRackTotal = sum
			bestRack = rack
		}
	}
	var bestNode cluster.NodeID
	bestNodeTotal := -1.0
	for _, id := range c.NodesInRack(bestRack) {
		if total := totals[id]; total > bestNodeTotal {
			bestNodeTotal = total
			bestNode = id
		}
	}
	return bestNode
}

func (s *ResourceAwareScheduler) referenceSelectNode(
	ss *referenceSchedState, demand resource.Vector,
) (int, bool) {
	best := -1
	bestDist := -1.0
	for i := range ss.avail {
		a := ss.avail[i]
		if !referenceSatisfiesHard(a, demand, s.classes) {
			continue
		}
		if !ss.hasFreeSlot(i) {
			continue
		}
		d := resource.Distance(demand, a, ss.netdist[i], s.weights)
		if bestDist < 0 || d < bestDist {
			bestDist = d
			best = i
		}
	}
	return best, bestDist >= 0
}

// randomCluster builds 1–8 racks. Half the clusters are uniform, with
// equal racks, so rack and node totals tie; the rest mix node specs and
// declare nodes in a shuffled rack order, so declaration order and rack
// order disagree.
func randomCluster(t *testing.T, rng *rand.Rand) *cluster.Cluster {
	t.Helper()
	racks := 1 + rng.Intn(8)
	if rng.Intn(2) == 0 {
		c, err := cluster.TwoRack(racks, 1+rng.Intn(6), cluster.EmulabNodeSpec())
		if err != nil {
			t.Fatalf("cluster: %v", err)
		}
		return c
	}
	b := cluster.NewBuilder()
	for i, n := 0, racks+rng.Intn(6*racks); i < n; i++ {
		rack := cluster.RackID(fmt.Sprintf("rack-%d", rng.Intn(racks)))
		b.AddNode(cluster.NodeID(fmt.Sprintf("n%02d", i)), rack, cluster.NodeSpec{
			Capacity: resource.Vector{
				CPU:       float64(50 + rng.Intn(8)*50),
				MemoryMB:  float64(512 * (1 + rng.Intn(8))),
				Bandwidth: float64(rng.Intn(200)),
			},
			Slots: 1 + rng.Intn(4),
		})
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	return c
}

// floodTopo is one component of par tasks each demanding 100 cores.
func floodTopo(t *testing.T, name string, par int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(name)
	b.SetSpout("flood", par).SetCPULoad(10000).SetMemoryLoad(1)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("flood topology: %v", err)
	}
	return topo
}

// randomScheduler draws weights and, now and then, makes CPU a hard axis.
func randomScheduler(rng *rand.Rand) *ResourceAwareScheduler {
	opts := []RASOption{WithWeights(resource.Weights{
		CPU:       rng.Float64() / 50,
		Memory:    rng.Float64() / 1000,
		Bandwidth: rng.Float64(),
	})}
	if rng.Intn(4) == 0 {
		opts = append(opts, WithClasses(resource.Classes{
			resource.AxisCPU:       resource.Hard,
			resource.AxisMemory:    resource.Hard,
			resource.AxisBandwidth: resource.Soft,
		}))
	}
	return NewResourceAwareScheduler(opts...)
}

// TestScheduleMatchesReference requires the index-addressed Schedule to
// make exactly the reference's decisions — the same placements, or the
// same error text — over seeded random clusters, partly filled states
// (resource-blind overcommit, failed and restored nodes, removed
// tenants) and random topologies, some of them infeasible.
func TestScheduleMatchesReference(t *testing.T) {
	placed, failed := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCluster(t, rng)
		state := NewGlobalState(c)
		ids := c.NodeIDs()
		sched := randomScheduler(rng)
		for step := 0; step < 6; step++ {
			topo, err := workloads.RandomTopology(seed*100+int64(step), workloads.RandomParams{
				MaxComponents:  6,
				MaxParallelism: 1 + rng.Intn(8),
				MaxCPULoad:     20 + rng.Float64()*200,
				MaxMemoryMB:    128 + rng.Float64()*3000,
			})
			if err != nil {
				t.Fatalf("seed %d: topology: %v", seed, err)
			}
			var filler Scheduler = sched
			if rng.Intn(3) == 0 {
				filler = EvenScheduler{} // overcommits, driving availability negative
			}
			want, wantErr := sched.referenceSchedule(topo, c, state)
			got, gotErr := sched.Schedule(topo, c, state)
			switch {
			case (wantErr == nil) != (gotErr == nil):
				t.Fatalf("seed %d step %d: error %v, reference %v", seed, step, gotErr, wantErr)
			case wantErr != nil:
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("seed %d step %d: error %q, reference %q", seed, step, gotErr, wantErr)
				}
				failed++
			case !reflect.DeepEqual(got, want):
				t.Fatalf("seed %d step %d: placement differs from reference:\n got %s\nwant %s",
					seed, step, got, want)
			default:
				placed++
			}
			// Evolve the state for the next step.
			if a, err := filler.Schedule(topo, c, state); err == nil {
				if err := state.Apply(topo, a); err != nil {
					t.Fatalf("seed %d step %d: Apply: %v", seed, step, err)
				}
			}
			switch rng.Intn(5) {
			case 0:
				state.ReleaseNode(ids[rng.Intn(len(ids))])
			case 1:
				if err := state.RestoreNode(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			case 2:
				if names := state.Topologies(); len(names) > 0 {
					state.Remove(names[rng.Intn(len(names))])
				}
			case 3:
				// Drown every node in CPU so no rack total exceeds -1 and
				// no ref node qualifies.
				flood := floodTopo(t, fmt.Sprintf("flood-%d-%d", seed, step), len(ids))
				if a, err := (EvenScheduler{}).Schedule(flood, c, state); err == nil {
					if err := state.Apply(flood, a); err != nil {
						t.Fatalf("seed %d step %d: Apply: %v", seed, step, err)
					}
				}
			}
		}
	}
	if placed < 100 || failed < 100 {
		t.Fatalf("inputs too one-sided: %d placed, %d infeasible", placed, failed)
	}
}
