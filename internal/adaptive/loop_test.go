package adaptive

import (
	"reflect"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/metrics"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// liarTopo is a chain whose middle stage truly needs 80 CPU points per
// task but declares 10, so a declaration-trusting scheduler packs it onto
// far too few nodes.
func liarTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("liar")
	b.SetSpout("s", 2).SetCPULoad(10).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("work", 6).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 2 * time.Millisecond, TupleBytes: 128, CPUPoints: 80})
	b.SetBolt("z", 2).ShuffleGrouping("work").SetCPULoad(10).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func runAdaptive(t *testing.T, seed int64) *LoopResult {
	t.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	topo := liarTopo(t)
	sched := core.NewResourceAwareScheduler()
	state := core.NewGlobalState(c)
	a, err := sched.Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	sim, err := simulator.New(c, simulator.Config{
		Duration:      12 * time.Second,
		MetricsWindow: 500 * time.Millisecond,
		Seed:          seed,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	loop := NewLoop(sim, c, sched, LoopConfig{})
	if err := loop.Manage(topo, a); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestLoopClosesOnMisdeclaredDemand is the subsystem's end-to-end check:
// profiling detects the packed hotspot, the controller triggers, the
// incremental reschedule spreads the truly-heavy tasks, and post-rebalance
// throughput clearly beats the pre-rebalance windows.
func TestLoopClosesOnMisdeclaredDemand(t *testing.T) {
	res := runAdaptive(t, 1)
	if len(res.Events) == 0 {
		t.Fatal("controller never rebalanced the mis-declared topology")
	}
	first := res.Events[0]
	if first.Trigger != TriggerHotspot {
		t.Errorf("first trigger = %q, want hotspot", first.Trigger)
	}
	topo := res.Result.Topology("liar")
	series := topo.SinkSeries
	n := len(series)
	early := metrics.Mean(series[:2]) // packed, overcommitted phase
	late := metrics.Mean(series[n-4 : n])
	if late < 2*early {
		t.Errorf("loop did not recover throughput: early=%v late=%v series=%v",
			early, late, series)
	}
	// Incremental: strictly fewer migrations than a full teardown (which
	// restarts all 10 tasks).
	if moves := res.TotalMoves(); moves == 0 || moves >= 10 {
		t.Errorf("total moves = %d, want within (0, 10)", moves)
	}
	// The final placement must spread the heavy component: no node hosts
	// more than one 80-point work task.
	final := res.Assignments["liar"]
	perNode := map[string]int{}
	for id, p := range final.Placements {
		if id >= 2 && id < 8 { // work task IDs (spout 0-1, work 2-7)
			perNode[string(p.Node)]++
		}
	}
	for node, cnt := range perNode {
		if cnt > 1 {
			t.Errorf("node %s still hosts %d heavy work tasks", node, cnt)
		}
	}
	if res.Status.Windows == 0 || len(res.Status.Topologies) != 1 {
		t.Errorf("status = %+v", res.Status)
	}
}

// TestLoopIsDeterministic: identical seeds must produce identical results,
// events and placements — the control loop sits inside the DES clock.
func TestLoopIsDeterministic(t *testing.T) {
	a := runAdaptive(t, 7)
	b := runAdaptive(t, 7)
	if !reflect.DeepEqual(a.Result, b.Result) {
		t.Error("results diverged across identical seeds")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("rebalance events diverged: %v vs %v", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Assignments, b.Assignments) {
		t.Error("final assignments diverged")
	}
}

// TestLoopSurvivesNodeFailure combines failure injection with adaptive
// replanning: the dead node must be zeroed out of the availability
// picture (never a migration target) and its dead tasks skipped, not
// fatal errors.
func TestLoopSurvivesNodeFailure(t *testing.T) {
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatal(err)
	}
	topo := liarTopo(t)
	sched := core.NewResourceAwareScheduler()
	state := core.NewGlobalState(c)
	a, err := sched.Schedule(topo, c, state)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(c, simulator.Config{
		Duration:      12 * time.Second,
		MetricsWindow: 500 * time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatal(err)
	}
	// Kill a node hosting part of the overloaded topology before the
	// controller's first decision, so replanning happens with a corpse in
	// the cluster.
	nodes := a.NodesUsed()
	victim := nodes[len(nodes)-1]
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: 700 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	loop := NewLoop(sim, c, sched, LoopConfig{})
	if err := loop.Manage(topo, a); err != nil {
		t.Fatal(err)
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("adaptive run with node failure: %v", err)
	}
	if len(res.Events) == 0 {
		t.Error("hotspot on the surviving packed node never triggered")
	}
	// No migration may have targeted the dead node.
	final := res.Assignments["liar"]
	for id, p := range final.Placements {
		if p.Node == victim && a.Placements[id] != p {
			t.Errorf("task %d migrated onto dead node %s", id, victim)
		}
	}
}

func TestLoopValidation(t *testing.T) {
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulator.New(c, simulator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	loop := NewLoop(sim, c, nil, LoopConfig{})
	if _, err := loop.Run(); err == nil {
		t.Error("Run with no managed topologies accepted")
	}
	topo := liarTopo(t)
	if err := loop.Manage(topo, core.NewAssignment("liar", "x")); err == nil {
		t.Error("incomplete assignment accepted")
	}
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatal(err)
	}
	if err := loop.Manage(topo, a); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	if err := loop.Manage(topo, a); err == nil {
		t.Error("duplicate Manage accepted")
	}
}
