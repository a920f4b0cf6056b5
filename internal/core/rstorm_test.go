package core

import (
	"errors"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
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
// nodes as on 256, so nothing is allocated per node, and no more than a
// fixed count. A call into a filled cluster, the common case in a
// multi-tenant round, allocates only its error and the per-rack sums.
func TestScheduleAllocsIndependentOfClusterSize(t *testing.T) {
	const (
		// pickRefNode's per-rack sums, then the Assignment, its map and
		// the map's buckets, or the error.
		maxPlaced = 4
		maxFailed = 2
	)
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops pooled scratch at random, so Schedule reallocates it")
	}
	topo := linearTopo(t, 2, 25, 256)
	large, err := cluster.TwoRack(8, 32, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The scratch lives in a sync.Pool, which a collection may empty;
	// none runs while collection is off, so every run after
	// AllocsPerRun's warm-up finds the scratch in the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(c *cluster.Cluster, filled bool) float64 {
		s, state := NewResourceAwareScheduler(), NewGlobalState(c)
		if filled {
			// One task per node takes all of its memory, the hard axis.
			b := topology.NewBuilder("fill")
			b.SetSpout("fill", c.Size()).SetMemoryLoad(cluster.EmulabNodeSpec().Capacity.MemoryMB)
			fill, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			a, err := EvenScheduler{}.Schedule(fill, c, state)
			if err != nil {
				t.Fatal(err)
			}
			if err := state.Apply(fill, a); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			_, err := s.Schedule(topo, c, state)
			if filled != errors.Is(err, ErrInsufficientResources) || (!filled && err != nil) {
				t.Fatalf("filled %v: Schedule error %v", filled, err)
			}
		})
	}
	for _, tc := range []struct {
		filled bool
		max    float64
	}{{false, maxPlaced}, {true, maxFailed}} {
		small, large := allocs(emulab12(t), tc.filled), allocs(large, tc.filled)
		if small != large {
			t.Errorf("filled %v: Schedule allocates %v times on Emulab12 but %v on TwoRack(8,32)",
				tc.filled, small, large)
		}
		if large > tc.max {
			t.Errorf("filled %v: Schedule allocates %v times, want at most %v", tc.filled, large, tc.max)
		}
	}
}

// TestScheduleConcurrentUse runs one scheduler from 8 goroutines, each
// placing seeded random topologies onto its own GlobalState over one of
// four clusters of 8 to 256 nodes, so pooled scratch sized for one
// cluster is reused for another. Every goroutine must see exactly the
// placements and error texts of the same sequence run serially.
func TestScheduleConcurrentUse(t *testing.T) {
	const goroutines, steps = 8, 12
	var clusters []*cluster.Cluster
	for _, shape := range [][2]int{{8, 32}, {2, 6}, {4, 8}, {2, 4}} {
		c, err := cluster.TwoRack(shape[0], shape[1], cluster.EmulabNodeSpec())
		if err != nil {
			t.Fatal(err)
		}
		clusters = append(clusters, c)
	}
	topos := make([][]*topology.Topology, goroutines)
	for g := range topos {
		for step := 0; step < steps; step++ {
			topo, err := workloads.RandomTopology(int64(g*100+step), workloads.RandomParams{
				MaxComponents: 6, MaxParallelism: 10, MaxMemoryMB: 1500,
			})
			if err != nil {
				t.Fatal(err)
			}
			topos[g] = append(topos[g], topo)
		}
	}
	s := NewResourceAwareScheduler()
	run := func(g int) []string {
		c := clusters[g%len(clusters)]
		state := NewGlobalState(c)
		var out []string
		for _, topo := range topos[g] {
			a, err := s.Schedule(topo, c, state)
			if err != nil {
				if !errors.Is(err, ErrInsufficientResources) {
					t.Errorf("goroutine %d: %s: %v", g, topo.Name(), err)
				}
				out = append(out, "error: "+err.Error())
				continue
			}
			if err := state.Apply(topo, a); err != nil {
				out = append(out, "apply: "+err.Error())
				continue
			}
			out = append(out, a.String())
		}
		return out
	}
	want := make([][]string, goroutines)
	placed, failed := 0, 0
	for g := range want {
		want[g] = run(g)
		for _, line := range want[g] {
			if strings.HasPrefix(line, "error: ") {
				failed++
			} else {
				placed++
			}
		}
	}
	if placed == 0 || failed == 0 {
		t.Fatalf("inputs too one-sided: %d placed, %d failed", placed, failed)
	}
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = run(g)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Errorf("goroutine %d: concurrent run differs from the serial one:\n got %q\nwant %q",
				g, got[g], want[g])
		}
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
