package rstorm_test

import (
	"errors"
	"testing"
	"time"

	"rstorm"
)

// buildWordCount builds a small keyed-aggregation topology through the
// public API.
func buildWordCount(t *testing.T) *rstorm.Topology {
	t.Helper()
	b := rstorm.NewTopologyBuilder("wordcount")
	b.SetSpout("words", 4).SetCPULoad(25).SetMemoryLoad(512).
		SetProfile(rstorm.ExecProfile{CPUPerTuple: 200 * time.Microsecond, TupleBytes: 256})
	b.SetBolt("split", 4).ShuffleGrouping("words").
		SetCPULoad(25).SetMemoryLoad(512).
		SetProfile(rstorm.ExecProfile{CPUPerTuple: 150 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("count", 4).FieldsGrouping("split", "word").
		SetCPULoad(25).SetMemoryLoad(512).
		SetProfile(rstorm.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func TestPublicAPIEndToEnd(t *testing.T) {
	topo := buildWordCount(t)
	c, err := rstorm.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	result, err := rstorm.ScheduleAndSimulate(c,
		rstorm.SimConfig{Duration: 5 * time.Second, MetricsWindow: time.Second},
		rstorm.NewResourceAwareScheduler(), topo)
	if err != nil {
		t.Fatalf("ScheduleAndSimulate: %v", err)
	}
	tr := result.Topology("wordcount")
	if tr == nil || tr.TuplesDelivered == 0 {
		t.Fatalf("no throughput: %+v", tr)
	}
	if tr.NodesUsed == 0 || tr.NodesUsed > 12 {
		t.Errorf("nodes used = %d", tr.NodesUsed)
	}
}

func TestPublicAPISchedulers(t *testing.T) {
	topo := buildWordCount(t)
	c, err := rstorm.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	for _, sched := range []rstorm.Scheduler{
		rstorm.NewResourceAwareScheduler(),
		rstorm.NewEvenScheduler(),
		rstorm.NewOfflineLinearScheduler(),
	} {
		state := rstorm.NewGlobalState(c)
		a, err := sched.Schedule(topo, c, state)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if !a.Complete(topo) {
			t.Errorf("%s produced incomplete assignment", sched.Name())
		}
	}
}

func TestPublicAPIInsufficientResources(t *testing.T) {
	b := rstorm.NewTopologyBuilder("huge")
	b.SetSpout("s", 1).SetMemoryLoad(1 << 20) // 1 TB
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c, err := rstorm.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	_, err = rstorm.NewResourceAwareScheduler().Schedule(topo, c, rstorm.NewGlobalState(c))
	if !errors.Is(err, rstorm.ErrInsufficientResources) {
		t.Fatalf("err = %v, want ErrInsufficientResources", err)
	}
}

func TestPublicAPINimbusLifecycle(t *testing.T) {
	c, err := rstorm.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	n, err := rstorm.NewNimbus(c, rstorm.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("NewNimbus: %v", err)
	}
	for _, id := range c.NodeIDs() {
		if _, err := n.StartSupervisor(id); err != nil {
			t.Fatalf("StartSupervisor: %v", err)
		}
	}
	topo := buildWordCount(t)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if scheduled := n.Tick(); len(scheduled) != 1 {
		t.Fatalf("Tick scheduled %v", scheduled)
	}
	if n.Assignment("wordcount") == nil {
		t.Fatal("assignment missing")
	}
	if err := n.KillTopology("wordcount"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
}

func TestPublicAPICustomWeights(t *testing.T) {
	topo := buildWordCount(t)
	c, err := rstorm.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	sched := rstorm.NewResourceAwareScheduler(rstorm.WithWeights(rstorm.Weights{
		CPU:       0.01,
		Memory:    0.001,
		Bandwidth: 2,
	}))
	a, err := sched.Schedule(topo, c, rstorm.NewGlobalState(c))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if !a.Complete(topo) {
		t.Fatal("incomplete")
	}
}

func TestPublicAPIClusterBuilder(t *testing.T) {
	c, err := rstorm.NewClusterBuilder().
		AddNode("a", "r1", rstorm.EmulabNodeSpec()).
		AddNode("b", "r1", rstorm.EmulabNodeSpec()).
		AddNode("c", "r2", rstorm.NodeSpec{
			Capacity: rstorm.ResourceVector{CPU: 400, MemoryMB: 8192, Bandwidth: 1000},
			Slots:    8,
			NICMbps:  1000,
		}).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if c.Size() != 3 || len(c.Racks()) != 2 {
		t.Errorf("cluster shape: %d nodes, %d racks", c.Size(), len(c.Racks()))
	}
	if got := c.Node("c").Spec.Capacity.CPU; got != 400 {
		t.Errorf("custom node CPU = %v", got)
	}
}

// TestDemandProfilerCountsOnlyFullWindows: a profiler built through the
// facade classifies flushes against the run's configured window. With 1 s
// windows and a task moved at 500 ms, the flushes [0, 0.5 s) and
// [0.5 s, 1 s) are partial, so Windows() reads 0 after the move, 1 at 2 s
// and 2 at 3 s. Inferring the window from the largest span seen read 1, 3
// and 4.
func TestDemandProfilerCountsOnlyFullWindows(t *testing.T) {
	topo := buildWordCount(t)
	c, err := rstorm.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	a, err := rstorm.NewResourceAwareScheduler().Schedule(topo, c, rstorm.NewGlobalState(c))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	sim, err := rstorm.NewSimulation(c, rstorm.SimConfig{Duration: 4 * time.Second, MetricsWindow: time.Second})
	if err != nil {
		t.Fatalf("NewSimulation: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	prof := rstorm.NewDemandProfiler()
	if err := sim.SetObserver(prof); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunTo(500 * time.Millisecond); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	// Move task 0 to any other node: the move flushes [0, 500 ms).
	moved := a.Clone()
	for _, id := range c.NodeIDs() {
		if id != a.Placements[0].Node {
			moved.Place(0, rstorm.Placement{Node: id, Slot: 0})
			break
		}
	}
	if n, err := sim.Reassign(topo.Name(), moved); err != nil || n != 1 {
		t.Fatalf("Reassign = %d, %v; want 1 move", n, err)
	}
	if got := prof.Windows(); got != 0 {
		t.Errorf("Windows() after the move = %d, want 0", got)
	}
	for _, step := range []struct {
		at   time.Duration
		want int
	}{{2 * time.Second, 1}, {3 * time.Second, 2}} {
		if err := sim.RunTo(step.at); err != nil {
			t.Fatalf("RunTo(%v): %v", step.at, err)
		}
		if got := prof.Windows(); got != step.want {
			t.Errorf("Windows() at %v = %d, want %d", step.at, got, step.want)
		}
	}
}
