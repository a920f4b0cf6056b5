package simulator

import (
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/topology"
)

// startChain schedules chainTopo on the emulab cluster and starts a
// simulation, returning it with its assignment.
func startChain(t *testing.T, cfg Config) (*Simulation, *core.Assignment, *cluster.Cluster) {
	t.Helper()
	topo := chainTopo(t, 2, 100*time.Microsecond, 200*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return sim, a, c
}

func TestInjectFaultMidRun(t *testing.T) {
	sim, a, _ := startChain(t, shortCfg())
	victim := a.NodesUsed()[len(a.NodesUsed())-1]
	if err := sim.RunTo(2 * time.Second); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	// Mid-run injection was rejected outright before; now it schedules on
	// the live event queue.
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: 3 * time.Second}); err != nil {
		t.Fatalf("mid-run InjectFault: %v", err)
	}
	// ... but not into the past.
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: time.Second}); err == nil {
		t.Error("past-time injection accepted")
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if res.TuplesDropped == 0 {
		t.Error("expected drops after mid-run crash")
	}
	if len(res.Faults) != 1 || res.Faults[0].Kind != faults.Crash || res.Faults[0].At != 3*time.Second {
		t.Errorf("fault log = %v, want one crash at 3s", res.Faults)
	}
	if down := res.NodeDowntime[victim]; down != 7*time.Second {
		t.Errorf("downtime = %v, want 7s (crash at 3s, 10s run)", down)
	}
}

func TestRecoverReturnsCapacityAndDowntime(t *testing.T) {
	sim, a, _ := startChain(t, shortCfg())
	victim := a.NodesUsed()[len(a.NodesUsed())-1]
	sched := faults.Schedule{
		{Kind: faults.Crash, Node: victim, At: 2 * time.Second},
		{Kind: faults.Recover, Node: victim, At: 5 * time.Second},
	}
	if err := sched.Apply(sim); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := sim.RunTo(6 * time.Second); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	if dead := sim.DeadNodes(); len(dead) != 0 {
		t.Errorf("node still dead after recovery: %v", dead)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if down := res.NodeDowntime[victim]; down != 3*time.Second {
		t.Errorf("downtime = %v, want 3s", down)
	}
	if len(res.Faults) != 2 {
		t.Errorf("fault log = %v, want crash+recover", res.Faults)
	}
}

func TestSlowFaultDegradesAndRecoverRestores(t *testing.T) {
	// Same seed, three runs: healthy, slowed, slowed-then-recovered.
	run := func(sched faults.Schedule) *Result {
		sim, a, _ := startChain(t, shortCfg())
		// Slow the node hosting tasks (first used node).
		_ = a
		for i := range sched {
			sched[i].Node = a.NodesUsed()[0]
		}
		if err := sched.Apply(sim); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		res, err := sim.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return res
	}
	healthy := run(nil)
	slowed := run(faults.Schedule{{Kind: faults.Slow, At: time.Second, Factor: 8}})
	restored := run(faults.Schedule{
		{Kind: faults.Slow, At: time.Second, Factor: 8},
		{Kind: faults.Recover, At: 3 * time.Second},
	})
	h := healthy.Topology("chain").TuplesDelivered
	s := slowed.Topology("chain").TuplesDelivered
	r := restored.Topology("chain").TuplesDelivered
	if s >= h {
		t.Errorf("slow fault did not degrade: slowed %d >= healthy %d", s, h)
	}
	if r <= s {
		t.Errorf("recover did not restore: restored %d <= slowed %d", r, s)
	}
}

// startSpread starts chainTopo with an explicit placement — spouts on
// node 0, "work" bolts on node 1, sinks on node 2 — so tests can crash a
// bolt-carrying node while the spouts survive.
func startSpread(t *testing.T, cfg Config) (*Simulation, *core.Assignment, *cluster.Cluster) {
	t.Helper()
	topo := chainTopo(t, 2, 100*time.Microsecond, 200*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	ids := c.NodeIDs()
	a := core.NewAssignment("chain", "manual")
	hosts := map[string]cluster.NodeID{"spout": ids[0], "work": ids[1], "sink": ids[2]}
	for _, task := range topo.Tasks() {
		a.Place(task.ID, core.Placement{Node: hosts[task.Component], Slot: 0})
	}
	sim, err := New(c, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return sim, a, c
}

func TestReplayRecoversFailedTrees(t *testing.T) {
	// Crash the bolt-carrying node mid-run: without replay the failed
	// trees are dropped for good; with replay the spout re-emits them
	// (bounded), so TuplesReplayed > 0 and every lost tree is accounted.
	run := func(replay bool) *Result {
		cfg := shortCfg()
		cfg.Replay = replay
		sim, _, c := startSpread(t, cfg)
		victim := c.NodeIDs()[1] // the "work" bolts
		if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: 5 * time.Second}); err != nil {
			t.Fatalf("InjectFault: %v", err)
		}
		res, err := sim.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return res
	}
	plain := run(false)
	replayed := run(true)
	if plain.TuplesReplayed != 0 || plain.TreesLost != 0 {
		t.Errorf("replay-off run counted replays: %d/%d", plain.TuplesReplayed, plain.TreesLost)
	}
	if replayed.TuplesReplayed == 0 {
		t.Errorf("replay-on run re-emitted nothing (dropped=%d)", replayed.TuplesDropped)
	}
	// Replay must not mint tuples from nothing: delivered stays bounded by
	// emitted, which now includes re-emissions.
	tr := replayed.Topology("chain")
	if tr.TuplesDelivered > tr.TuplesEmitted {
		t.Errorf("delivered %d > emitted %d", tr.TuplesDelivered, tr.TuplesEmitted)
	}
}

func TestReplayOffIsByteIdentical(t *testing.T) {
	// The replay machinery must be invisible when disabled, including in
	// runs with failures: drop-on-failure results match field for field.
	run := func() *Result {
		sim, a, _ := startChain(t, shortCfg())
		victim := a.NodesUsed()[len(a.NodesUsed())-1]
		if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: 4 * time.Second}); err != nil {
			t.Fatalf("InjectFault: %v", err)
		}
		res, err := sim.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return res
	}
	r1, r2 := run(), run()
	t1, t2 := r1.Topology("chain"), r2.Topology("chain")
	if t1.TuplesEmitted != t2.TuplesEmitted || t1.TuplesDelivered != t2.TuplesDelivered ||
		r1.TuplesDropped != r2.TuplesDropped {
		t.Fatalf("fault path non-deterministic: %d/%d/%d vs %d/%d/%d",
			t1.TuplesEmitted, t1.TuplesDelivered, r1.TuplesDropped,
			t2.TuplesEmitted, t2.TuplesDelivered, r2.TuplesDropped)
	}
}

func TestReassignRestartingRevivesDeadTasks(t *testing.T) {
	sim, a, c := startSpread(t, shortCfg())
	// Crash after the warmup windows so the recovery-time baseline (full
	// post-warmup pre-crash windows) is measurable.
	victim := c.NodeIDs()[1] // the "work" bolts
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: 4 * time.Second}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	if err := sim.RunTo(5 * time.Second); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	// Build a failover assignment: every task on the dead node moves to a
	// survivor and restarts there.
	next := a.Clone()
	restart := make(map[int]bool)
	survivor := c.NodeIDs()[3]
	for id, p := range next.Placements {
		if p.Node == victim {
			next.Placements[id] = core.Placement{Node: survivor, Slot: p.Slot}
			restart[id] = true
		}
	}
	if len(restart) == 0 {
		t.Fatal("victim hosted no tasks")
	}
	// Restarting on a dead node must be rejected.
	bad := a.Clone()
	for id := range restart {
		bad.Placements[id] = core.Placement{Node: victim, Slot: 0}
	}
	if _, err := sim.ReassignRestarting("chain", bad, restart); err == nil {
		t.Error("restart on dead node accepted")
	}
	n, err := sim.ReassignRestarting("chain", next, restart)
	if err != nil {
		t.Fatalf("ReassignRestarting: %v", err)
	}
	if n != len(restart) {
		t.Errorf("restarted %d tasks, want %d", n, len(restart))
	}
	preDrop := sim.lanes[0].dropped
	if err := sim.RunTo(8 * time.Second); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	tr := res.Topology("chain")
	// Flow resumed: windows after the restart show sink arrivals again.
	lastWin := tr.SinkSeries[len(tr.SinkSeries)-1]
	if lastWin == 0 {
		t.Errorf("no throughput after restart: series=%v", tr.SinkSeries)
	}
	if sim.lanes[0].dropped < preDrop {
		t.Errorf("drop counter went backwards")
	}
	if tr.RecoveryTime == 0 {
		t.Errorf("recovery time unmeasured: %v (series=%v)", tr.RecoveryTime, tr.SinkSeries)
	}
}

func TestRecoveryTimeMetric(t *testing.T) {
	w := time.Second
	series := []float64{100, 100, 100, 100, 20, 20, 95, 100}
	// Crash at 3.5s: windows 0-2 are full pre-crash (warmup 1 drops w0);
	// baseline = 100. First recovered window is 6 (95 >= 90), ending at 7s.
	got := recoveryTime(series, 3500*time.Millisecond, w, 1)
	if want := 7*time.Second - 3500*time.Millisecond; got != want {
		t.Errorf("recoveryTime = %v, want %v", got, want)
	}
	// Never recovered.
	flat := []float64{100, 100, 100, 10, 10, 10}
	if got := recoveryTime(flat, 2500*time.Millisecond, w, 1); got != -1 {
		t.Errorf("unrecovered series = %v, want -1", got)
	}
	// Crash before any measurable baseline.
	if got := recoveryTime(series, 500*time.Millisecond, w, 1); got != 0 {
		t.Errorf("unmeasurable baseline = %v, want 0", got)
	}
}

func TestInjectFaultValidation(t *testing.T) {
	c := emulabCluster(t)
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: "ghost", At: time.Second}); err == nil {
		t.Error("unknown node accepted")
	}
	if err := sim.InjectFault(faults.Fault{Kind: faults.Slow, Node: c.NodeIDs()[0], At: time.Second, Factor: 0.5}); err == nil {
		t.Error("invalid slow factor accepted")
	}
	if err := sim.InjectFault(faults.Fault{Kind: faults.Recover, Node: c.NodeIDs()[0], At: time.Second}); err != nil {
		t.Errorf("pre-start recover rejected: %v", err)
	}
}

// processedFrom counts one component's executions in the windows that
// start at or after from.
type processedFrom struct {
	comp string
	from time.Duration
	n    int64
}

func (p *processedFrom) OnWindow(samples []TaskSample) {
	for i := range samples {
		if s := &samples[i]; s.Component == p.comp && s.WindowStart >= p.from {
			p.n += s.Processed
		}
	}
}

// TestCrashDropsNICTransferInService: a crash drops the transfer its NIC
// is serializing, not only the ones queued behind it. One 1 MiB tuple is
// in flight at a time (max pending 1) from a spout on node 0 to a bolt on
// node 1, and node 0 crashes at 500 ms while its NIC is serving: no tuple
// may reach the bolt after the crash, since no live spout is left to emit
// one, and the NIC's busy time may not run past the crash.
func TestCrashDropsNICTransferInService(t *testing.T) {
	b := topology.NewBuilder("bulk")
	b.SetSpout("spout", 1).SetCPULoad(10).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 1 << 20})
	b.SetBolt("bolt", 1).ShuffleGrouping("spout").SetCPULoad(10).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 64})
	b.SetMaxSpoutPending(1)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := emulabCluster(t)
	ids := c.NodeIDs()
	a := core.NewAssignment(topo.Name(), "manual")
	a.Place(0, core.Placement{Node: ids[0], Slot: 0})
	a.Place(1, core.Placement{Node: ids[1], Slot: 0})
	const crashAt = 500 * time.Millisecond
	sim, err := New(c, Config{Duration: 2 * time.Second, MetricsWindow: crashAt})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	after := &processedFrom{comp: "bolt", from: crashAt}
	if err := sim.SetObserver(after); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: ids[0], At: crashAt}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := res.Topology(topo.Name())
	if after.n != 0 {
		t.Errorf("bolt processed %d tuples after the crash (of %d in all)", after.n, tr.TuplesProcessed)
	}
	if res.TuplesDropped != 1 {
		t.Errorf("dropped %d tuples, want the 1 in service at the crash", res.TuplesDropped)
	}
	if busy := time.Duration(res.NICUtilization[ids[0]] * float64(2*time.Second)); busy > crashAt {
		t.Errorf("crashed NIC busy %v, longer than the %v it was up", busy, crashAt)
	}
}
