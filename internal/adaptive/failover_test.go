package adaptive

import (
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// crashSample builds a dead sample whose host node is itself dead — a
// crash victim, as opposed to an OOM kill on healthy hardware.
func crashSample(topo, comp string, id int, node cluster.NodeID) simulator.TaskSample {
	s := sample(topo, comp, id, node, 0, 1)
	s.Dead = true
	s.NodeDead = true
	return s
}

// honestTopo is a chain whose declared demands match reality — failover
// tests want placement churn to come from faults, not mis-declaration.
func honestTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("chain")
	b.SetSpout("s", 2).SetCPULoad(20).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("work", 4).ShuffleGrouping("s").SetCPULoad(25).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 300 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("z", 2).ShuffleGrouping("work").SetCPULoad(10).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

// spreadAssignment pins the chain across three distinct nodes so a single
// node crash takes out exactly one stage.
func spreadAssignment(topo *topology.Topology, ids []cluster.NodeID) *core.Assignment {
	a := core.NewAssignment(topo.Name(), "manual")
	nodeFor := map[string]cluster.NodeID{"s": ids[0], "work": ids[1], "z": ids[2]}
	for _, task := range topo.Tasks() {
		a.Place(task.ID, core.Placement{Node: nodeFor[task.Component], Slot: 0})
	}
	return a
}

// TestProfilerCrashMarksPersistThroughNodeRecovery: a crash-killed task
// stays in the restart set while its node bounces back (the executor is
// still gone), and leaves it only when the task itself is sampled live.
func TestProfilerCrashMarksPersistThroughNodeRecovery(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	p.OnWindow([]simulator.TaskSample{crashSample("t", "work", 3, "n0")})
	if !p.CrashedTasks("t")[3] {
		t.Fatal("crash-killed task not recorded")
	}
	// Node recovered, executor still dead: Dead without NodeDead.
	stillDead := sample("t", "work", 3, "n0", 0, 1)
	stillDead.Dead = true
	p.OnWindow([]simulator.TaskSample{stillDead})
	if !p.CrashedTasks("t")[3] {
		t.Error("crash mark dropped when the node recovered but the task did not")
	}
	// Restarted: a live sample clears both the dead and crashed marks.
	p.OnWindow([]simulator.TaskSample{sample("t", "work", 3, "n2", 0.4, 1)})
	if p.CrashedTasks("t") != nil {
		t.Error("crash mark survived a live sample")
	}
	if p.DeadTasks("t")[3] {
		t.Error("dead mark survived a live sample")
	}
}

// TestOOMDeathIsNotACrash: a task killed on a healthy node (the OOM
// killer's verdict) must not enter the failover restart set.
func TestOOMDeathIsNotACrash(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	oom := sample("t", "work", 2, "n0", 0, 1)
	oom.Dead = true // NodeDead stays false
	p.OnWindow([]simulator.TaskSample{oom})
	if p.CrashedTasks("t") != nil {
		t.Error("OOM-killed task entered the crash set")
	}
	if !p.DeadTasks("t")[2] {
		t.Error("OOM-killed task not recorded dead")
	}
}

// TestFailoverTriggerBypassesGates: failover fires on the first window of
// evidence (no hysteresis) and straight through an active cooldown — and
// outranks a simultaneous hotspot.
func TestFailoverTriggerBypassesGates(t *testing.T) {
	c := newTestController()
	win := []simulator.TaskSample{
		crashSample("t", "work", 0, "n0"),
		sample("t", "s", 1, "n1", 0.5, 1),
	}
	c.OnWindow(win)
	trigger, ok := c.ShouldRebalance("t")
	if !ok || trigger != TriggerFailover {
		t.Fatalf("first crash window: ShouldRebalance = %q, %v; want failover", trigger, ok)
	}
	// A failover round was applied but the restart failed (no capacity):
	// the trigger must re-arm through the cooldown it just started.
	c.NotifyRebalanced("t", 0, TriggerFailover)
	c.OnWindow(win)
	trigger, ok = c.ShouldRebalance("t")
	if !ok || trigger != TriggerFailover {
		t.Fatalf("during cooldown: ShouldRebalance = %q, %v; want failover", trigger, ok)
	}
	// Restart landed: live samples clear the marks, and the cooldown is
	// back in charge.
	c.OnWindow([]simulator.TaskSample{
		sample("t", "work", 0, "n2", 0.5, 1),
		sample("t", "s", 1, "n1", 0.5, 1),
	})
	if trigger, ok := c.ShouldRebalance("t"); ok {
		t.Errorf("after restart landed: ShouldRebalance = %q, true; want quiet", trigger)
	}

	// Outranks a hotspot built over the same windows.
	c2 := newTestController()
	hot := append(hotWindow(), crashSample("t", "work", 9, "n3"))
	c2.OnWindow(hot)
	c2.OnWindow(hot)
	if trigger, _ := c2.ShouldRebalance("t"); trigger != TriggerFailover {
		t.Errorf("crash + hotspot: trigger = %q, want failover first", trigger)
	}
}

// TestFlapGuardHoldsRecoveredNode exercises the embargo state machine:
// dead→live starts a hold measured in Observe calls, re-dying clears it,
// and hold 0 (or a nil guard) disables everything.
func TestFlapGuardHoldsRecoveredNode(t *testing.T) {
	g := NewFlapGuard(2)
	g.Observe([]cluster.NodeID{"n1"})
	if g.Holding("n1") {
		t.Error("dead node embargoed (dead outranks embargo)")
	}
	g.Observe(nil) // recovered: hold 2 starts
	if !g.Holding("n1") {
		t.Fatal("recovered node not embargoed")
	}
	if e := g.Embargoed(); len(e) != 1 || e[0] != "n1" {
		t.Fatalf("Embargoed = %v", e)
	}
	g.Observe(nil) // second and last hold epoch
	if !g.Holding("n1") {
		t.Error("embargo released one epoch early")
	}
	g.Observe(nil)
	if g.Holding("n1") || g.Embargoed() != nil {
		t.Error("embargo not released after the hold expired")
	}

	// Re-dying mid-embargo clears the hold; the next recovery re-earns a
	// full one.
	g.Observe([]cluster.NodeID{"n1"})
	g.Observe(nil)
	if !g.Holding("n1") {
		t.Fatal("second recovery not embargoed")
	}
	g.Observe([]cluster.NodeID{"n1"})
	if g.Holding("n1") {
		t.Error("node re-died but is still counted embargoed")
	}
	g.Observe(nil)
	g.Observe(nil)
	if !g.Holding("n1") {
		t.Error("flapping node did not re-earn a full hold")
	}

	// Disabled and nil guards are inert.
	g0 := NewFlapGuard(0)
	g0.Observe([]cluster.NodeID{"n1"})
	g0.Observe(nil)
	if g0.Holding("n1") || g0.Embargoed() != nil {
		t.Error("hold 0 guard embargoed a node")
	}
	var gn *FlapGuard
	gn.Observe(nil)
	if gn.Holding("n1") || gn.Embargoed() != nil {
		t.Error("nil guard not inert")
	}
}

// TestFailoverRestartsCrashedTasks is the adaptive layer's end-to-end
// failover check: a node crash mid-run fires the failover trigger at the
// next epoch, the crashed stage is restarted on surviving capacity, and
// throughput recovers to ≥90% of its pre-crash baseline (a measured,
// positive RecoveryTime).
func TestFailoverRestartsCrashedTasks(t *testing.T) {
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatal(err)
	}
	topo := honestTopo(t)
	ids := c.NodeIDs()
	a := spreadAssignment(topo, ids)
	victim := ids[1]
	sim, err := simulator.New(c, simulator.Config{
		Duration:      10 * time.Second,
		MetricsWindow: 500 * time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatal(err)
	}
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: 2200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	loop := NewLoop(sim, c, core.NewResourceAwareScheduler(), LoopConfig{})
	if err := loop.Manage(topo, a); err != nil {
		t.Fatal(err)
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var failover *RebalanceEvent
	for i := range res.Events {
		if res.Events[i].Trigger == TriggerFailover {
			failover = &res.Events[i]
			break
		}
	}
	if failover == nil {
		t.Fatalf("no failover event; events = %+v", res.Events)
	}
	// Crash at 2.2s lands in the [2s, 2.5s) window: the 2.5s epoch is the
	// first decision point that can see it, and must act immediately.
	if failover.At != 2500*time.Millisecond {
		t.Errorf("failover fired at %v, want 2.5s (first epoch after the crash)", failover.At)
	}
	if failover.Moves < 4 {
		t.Errorf("failover restarted %d tasks, want all 4 of the crashed stage", failover.Moves)
	}
	final := res.Assignments["chain"]
	for id, p := range final.Placements {
		if p.Node == victim {
			t.Errorf("task %d left on the dead node %s", id, victim)
		}
	}
	// Every crash mark must have been cleared by post-restart live samples.
	if crashed := loop.Controller().Profiler().CrashedTasks("chain"); crashed != nil {
		t.Errorf("crashed tasks still pending at end of run: %v", crashed)
	}
	tr := res.Result.Topology("chain")
	if tr.RecoveryTime <= 0 {
		t.Errorf("RecoveryTime = %v, want positive (throughput back to ≥90%% of baseline)",
			tr.RecoveryTime)
	}
}

// TestFlapDampingEmbargoesRecoveredNode drives the loop's epochs by hand
// around a crash→recover schedule: after the node returns, availability
// must keep reading zero for it until FlapDamping epochs have passed, so
// nothing is re-placed onto hardware that may still be flapping.
func TestFlapDampingEmbargoesRecoveredNode(t *testing.T) {
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatal(err)
	}
	topo := honestTopo(t)
	ids := c.NodeIDs()
	a := spreadAssignment(topo, ids)
	victim := ids[1]
	sim, err := simulator.New(c, simulator.Config{
		Duration:      10 * time.Second,
		MetricsWindow: 500 * time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatal(err)
	}
	sched := faults.Schedule{
		{Kind: faults.Crash, Node: victim, At: 1 * time.Second},
		{Kind: faults.Recover, Node: victim, At: 2200 * time.Millisecond},
	}
	if err := sched.Apply(sim); err != nil {
		t.Fatal(err)
	}
	loop := NewLoop(sim, c, core.NewResourceAwareScheduler(), LoopConfig{FlapDamping: 3})
	if err := loop.Manage(topo, a); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetObserver(loop.Controller()); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	step := func(at time.Duration) {
		t.Helper()
		if err := sim.RunTo(at); err != nil {
			t.Fatal(err)
		}
		if _, err := loop.arbitrate(at); err != nil {
			t.Fatal(err)
		}
	}
	// Node dead at the 1.5s and 2s epochs: dead, not embargoed.
	step(1500 * time.Millisecond)
	step(2 * time.Second)
	if loop.guard.Holding(victim) {
		t.Error("dead node embargoed")
	}
	// Recovered at 2.2s: the 2.5s epoch opens a 3-epoch embargo.
	for _, at := range []time.Duration{2500, 3000, 3500} {
		step(at * time.Millisecond)
		if !loop.guard.Holding(victim) {
			t.Fatalf("epoch %v: recovered node not embargoed", at*time.Millisecond)
		}
		if got := loop.availabilityFor("chain")[victim]; got.CPU != 0 || got.MemoryMB != 0 {
			t.Fatalf("epoch %v: embargoed node still offers capacity %v", at*time.Millisecond, got)
		}
	}
	// Hold expired: the node is capacity again.
	step(4 * time.Second)
	if loop.guard.Holding(victim) {
		t.Error("embargo outlived its hold")
	}
	if got := loop.availabilityFor("chain")[victim]; got.CPU == 0 {
		t.Error("recovered node still reads zero capacity after the hold")
	}
}
