package core

import (
	"errors"
	"testing"
	"testing/quick"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
)

// linearTopo builds spout -> b1 -> b2 -> b3, parallelism par, with the
// given per-task demands.
func linearTopo(t *testing.T, par int, cpu, mem float64) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("linear")
	b.SetSpout("spout", par).SetCPULoad(cpu).SetMemoryLoad(mem)
	b.SetBolt("b1", par).ShuffleGrouping("spout").SetCPULoad(cpu).SetMemoryLoad(mem)
	b.SetBolt("b2", par).ShuffleGrouping("b1").SetCPULoad(cpu).SetMemoryLoad(mem)
	b.SetBolt("b3", par).ShuffleGrouping("b2").SetCPULoad(cpu).SetMemoryLoad(mem)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func emulab12(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	return c
}

func TestTaskOrderingInterleavesAdjacentComponents(t *testing.T) {
	topo := linearTopo(t, 3, 10, 100)
	ordered := TaskOrdering(topo)
	if len(ordered) != 12 {
		t.Fatalf("ordering has %d tasks, want 12", len(ordered))
	}
	// Algorithm 3 draws one task per component per round:
	// spout[0] b1[0] b2[0] b3[0] spout[1] b1[1] ...
	wantComponents := []string{
		"spout", "b1", "b2", "b3",
		"spout", "b1", "b2", "b3",
		"spout", "b1", "b2", "b3",
	}
	for i, task := range ordered {
		if task.Component != wantComponents[i] {
			t.Fatalf("position %d = %s, want %s (full: %v)", i, task.Component, wantComponents[i], ordered)
		}
	}
}

func TestTaskOrderingUnevenParallelism(t *testing.T) {
	b := topology.NewBuilder("uneven")
	b.SetSpout("s", 1)
	b.SetBolt("a", 3).ShuffleGrouping("s")
	b.SetBolt("z", 1).ShuffleGrouping("a")
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ordered := TaskOrdering(topo)
	if len(ordered) != 5 {
		t.Fatalf("ordering = %v", ordered)
	}
	// Rounds: s[0] a[0] z[0], then a[1], then a[2].
	want := []string{"s", "a", "z", "a", "a"}
	for i, task := range ordered {
		if task.Component != want[i] {
			t.Fatalf("ordering = %v", ordered)
		}
	}
}

func TestQuickTaskOrderingCoversEveryTaskOnce(t *testing.T) {
	f := func(p1, p2, p3 uint8) bool {
		b := topology.NewBuilder("q")
		b.SetSpout("s", int(p1%5)+1)
		b.SetBolt("a", int(p2%5)+1).ShuffleGrouping("s")
		b.SetBolt("z", int(p3%5)+1).ShuffleGrouping("a")
		topo, err := b.Build()
		if err != nil {
			return false
		}
		ordered := TaskOrdering(topo)
		if len(ordered) != topo.TotalTasks() {
			return false
		}
		seen := make(map[int]bool, len(ordered))
		for _, task := range ordered {
			if seen[task.ID] {
				return false
			}
			seen[task.ID] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRStormSchedulesAllTasks(t *testing.T) {
	topo := linearTopo(t, 6, 25, 256)
	c := emulab12(t)
	state := NewGlobalState(c)
	sched := NewResourceAwareScheduler()

	a, err := sched.Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !a.Complete(topo) {
		t.Fatal("assignment incomplete")
	}
	if err := a.Validate(topo, c, resource.DefaultClasses()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRStormRespectsHardMemoryConstraint(t *testing.T) {
	// 24 tasks x 600 MB = 14400 MB total; a node holds 2048 MB, so at
	// most 3 tasks per node. No node may exceed its memory.
	topo := linearTopo(t, 6, 5, 600)
	c := emulab12(t)
	state := NewGlobalState(c)

	a, err := NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for node, used := range a.UsedPerNode(topo) {
		if capa := c.Node(node).Spec.Capacity; used.MemoryMB > capa.MemoryMB {
			t.Errorf("node %s memory %v exceeds capacity %v", node, used.MemoryMB, capa.MemoryMB)
		}
	}
}

func TestRStormErrorsWhenMemoryImpossible(t *testing.T) {
	topo := linearTopo(t, 6, 5, 4096) // single task exceeds any node
	c := emulab12(t)
	state := NewGlobalState(c)
	_, err := NewResourceAwareScheduler().Schedule(topo, c, state)
	if !errors.Is(err, ErrInsufficientResources) {
		t.Fatalf("err = %v, want ErrInsufficientResources", err)
	}
}

func TestRStormAllowsSoftCPUOvercommit(t *testing.T) {
	// Total CPU demand 24*60 = 1440 > 1200 cluster points, but memory
	// fits; scheduling must succeed because CPU is a soft constraint.
	topo := linearTopo(t, 6, 60, 100)
	c := emulab12(t)
	state := NewGlobalState(c)
	a, err := NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !a.Complete(topo) {
		t.Fatal("incomplete assignment under soft overcommit")
	}
}

func TestRStormPacksFewerNodesThanEven(t *testing.T) {
	// Compute-bound Fig. 9a scenario: 24 tasks of 50 points each fill
	// exactly 12 cores; R-Storm should use ~6 of 12 nodes (2 tasks/node)
	// while the even scheduler uses all 12.
	topo := linearTopo(t, 6, 50, 512)
	c := emulab12(t)

	ra, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("r-storm: %v", err)
	}
	ea, err := EvenScheduler{}.Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("even: %v", err)
	}
	if got := len(ea.NodesUsed()); got != 12 {
		t.Errorf("even scheduler uses %d nodes, want 12", got)
	}
	if got := len(ra.NodesUsed()); got > 7 {
		t.Errorf("r-storm uses %d nodes, want <= 7", got)
	}
}

func TestRStormColocatesBetterThanEven(t *testing.T) {
	topo := linearTopo(t, 6, 20, 256)
	c := emulab12(t)

	ra, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("r-storm: %v", err)
	}
	ea, err := EvenScheduler{}.Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("even: %v", err)
	}
	rc, ec := ra.NetworkCost(topo, c), ea.NetworkCost(topo, c)
	if rc >= ec {
		t.Errorf("r-storm network cost %v not better than even %v", rc, ec)
	}
}

func TestRStormDeterministic(t *testing.T) {
	topo := linearTopo(t, 5, 30, 300)
	c := emulab12(t)
	a1, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	a2, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for id, p := range a1.Placements {
		if a2.Placements[id] != p {
			t.Fatalf("non-deterministic placement for task %d: %v vs %v", id, p, a2.Placements[id])
		}
	}
}

// TestScheduleAllocsIndependentOfClusterSize pins Schedule's allocation
// profile: one call on a fixed topology allocates as many times on 12
// nodes as on 256, so nothing is allocated per node.
func TestScheduleAllocsIndependentOfClusterSize(t *testing.T) {
	topo := linearTopo(t, 2, 25, 256)
	large, err := cluster.TwoRack(8, 32, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(c *cluster.Cluster) float64 {
		s, state := NewResourceAwareScheduler(), NewGlobalState(c)
		return testing.AllocsPerRun(50, func() {
			if _, err := s.Schedule(topo, c, state); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(emulab12(t)), allocs(large); small != large {
		t.Errorf("Schedule allocates %v times on Emulab12 but %v on TwoRack(8,32)", small, large)
	}
}

func TestRStormSingleWorkerPerNode(t *testing.T) {
	topo := linearTopo(t, 6, 25, 256)
	c := emulab12(t)
	a, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	slotsPerNode := make(map[cluster.NodeID]map[int]bool)
	for _, p := range a.Placements {
		if slotsPerNode[p.Node] == nil {
			slotsPerNode[p.Node] = make(map[int]bool)
		}
		slotsPerNode[p.Node][p.Slot] = true
	}
	for node, slots := range slotsPerNode {
		if len(slots) != 1 {
			t.Errorf("node %s uses %d worker slots, want 1", node, len(slots))
		}
	}
}

func TestRStormPrefersRefRack(t *testing.T) {
	// A small topology that fits in one rack entirely should stay in the
	// ref rack, minimizing network distance.
	topo := linearTopo(t, 2, 25, 256)
	c := emulab12(t)
	a, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	racks := make(map[cluster.RackID]bool)
	for _, p := range a.Placements {
		racks[c.Node(p.Node).Rack] = true
	}
	if len(racks) != 1 {
		t.Errorf("small topology spread across %d racks, want 1: %s", len(racks), a)
	}
}

func TestRStormRefNodePicksFullestRack(t *testing.T) {
	// Build an asymmetric cluster: rack-b has strictly more resources.
	b := cluster.NewBuilder()
	small := cluster.NodeSpec{Capacity: resource.Vector{CPU: 50, MemoryMB: 1024, Bandwidth: 100}}
	big := cluster.NodeSpec{Capacity: resource.Vector{CPU: 100, MemoryMB: 4096, Bandwidth: 100}}
	b.AddNode("a1", "rack-a", small).AddNode("a2", "rack-a", small)
	b.AddNode("b1", "rack-b", big).AddNode("b2", "rack-b", big)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	s := NewResourceAwareScheduler()
	avail := make([]resource.Vector, c.Size())
	for i, n := range c.Nodes() {
		avail[i] = n.Spec.Capacity
	}
	ref := c.NodeAt(s.pickRefNode(c, avail))
	if ref.Rack != "rack-b" {
		t.Errorf("ref node %s on rack %s, want rack-b", ref.ID, ref.Rack)
	}
}

func TestRStormTaskOrderingOverride(t *testing.T) {
	topo := linearTopo(t, 2, 25, 256)
	c := emulab12(t)
	reversed := func(tp *topology.Topology) []topology.Task {
		tasks := TaskOrdering(tp)
		for i, j := 0, len(tasks)-1; i < j; i, j = i+1, j-1 {
			tasks[i], tasks[j] = tasks[j], tasks[i]
		}
		return tasks
	}
	s := NewResourceAwareScheduler(WithTaskOrdering(reversed))
	a, err := s.Schedule(topo, c, NewGlobalState(c))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !a.Complete(topo) {
		t.Fatal("incomplete with custom ordering")
	}
}

func TestRStormRejectsInvalidOptions(t *testing.T) {
	topo := linearTopo(t, 1, 10, 100)
	c := emulab12(t)
	if _, err := NewResourceAwareScheduler(
		WithWeights(resource.Weights{CPU: -1}),
	).Schedule(topo, c, NewGlobalState(c)); err == nil {
		t.Error("negative weights accepted")
	}
	if _, err := NewResourceAwareScheduler(
		WithClasses(resource.Classes{}),
	).Schedule(topo, c, NewGlobalState(c)); err == nil {
		t.Error("empty classes accepted")
	}
	if _, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(emulab12(t))); err == nil {
		t.Error("state of another cluster accepted")
	}
}

func TestQuickRStormNeverViolatesHardConstraints(t *testing.T) {
	c := emulab12(t)
	classes := resource.DefaultClasses()
	f := func(parRaw, cpuRaw, memRaw uint8) bool {
		par := int(parRaw%6) + 1
		cpu := float64(cpuRaw%80) + 1
		mem := float64(memRaw)*4 + 1
		b := topology.NewBuilder("q")
		b.SetSpout("s", par).SetCPULoad(cpu).SetMemoryLoad(mem)
		b.SetBolt("b", par).ShuffleGrouping("s").SetCPULoad(cpu).SetMemoryLoad(mem)
		topo, err := b.Build()
		if err != nil {
			return false
		}
		a, err := NewResourceAwareScheduler().Schedule(topo, c, NewGlobalState(c))
		if err != nil {
			// Only acceptable failure is genuinely impossible memory.
			return errors.Is(err, ErrInsufficientResources)
		}
		for node, used := range a.UsedPerNode(topo) {
			capa := c.Node(node).Spec.Capacity
			if !resource.SatisfiesHard(capa, used, classes) {
				return false
			}
		}
		return a.Complete(topo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
