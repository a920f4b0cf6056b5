package simulator

import (
	"strings"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/topology"
)

// chainTopo builds spout -> work -> sink with the given profiles.
func chainTopo(t *testing.T, par int, spoutCost, boltCost time.Duration, bytes int, cpuLoad float64) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("chain")
	b.SetSpout("spout", par).
		SetCPULoad(cpuLoad).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: spoutCost, TupleBytes: bytes})
	b.SetBolt("work", par).ShuffleGrouping("spout").
		SetCPULoad(cpuLoad).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: boltCost, TupleBytes: bytes})
	b.SetBolt("sink", par).ShuffleGrouping("work").
		SetCPULoad(cpuLoad).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: boltCost, TupleBytes: bytes})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func emulabCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	return c
}

// runOnce schedules topo with sched and simulates it.
func runOnce(t *testing.T, topo *topology.Topology, c *cluster.Cluster, sched core.Scheduler, cfg Config) *Result {
	t.Helper()
	state := core.NewGlobalState(c)
	a, err := sched.Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("%s schedule: %v", sched.Name(), err)
	}
	sim, err := New(c, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func shortCfg() Config {
	return Config{
		Duration:      10 * time.Second,
		MetricsWindow: time.Second,
	}
}

func TestSimulationProducesThroughput(t *testing.T) {
	topo := chainTopo(t, 2, 200*time.Microsecond, 100*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	res := runOnce(t, topo, c, core.NewResourceAwareScheduler(), shortCfg())

	tr := res.Topology("chain")
	if tr == nil {
		t.Fatal("missing topology result")
	}
	if tr.TuplesEmitted == 0 || tr.TuplesDelivered == 0 {
		t.Fatalf("no flow: emitted=%d delivered=%d", tr.TuplesEmitted, tr.TuplesDelivered)
	}
	if tr.MeanSinkThroughput <= 0 {
		t.Fatalf("mean throughput = %v", tr.MeanSinkThroughput)
	}
	if len(tr.SinkSeries) != 10 {
		t.Fatalf("series length = %d, want 10", len(tr.SinkSeries))
	}
	if tr.MeanLatency <= 0 {
		t.Fatalf("latency = %v", tr.MeanLatency)
	}
	if tr.Scheduler != "r-storm" {
		t.Errorf("scheduler = %q", tr.Scheduler)
	}
}

func TestConservationDeliveredNeverExceedsEmitted(t *testing.T) {
	// With OutRatio 1 everywhere and one sink stage, sink arrivals can
	// never exceed spout emissions.
	topo := chainTopo(t, 3, 150*time.Microsecond, 80*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	res := runOnce(t, topo, c, core.NewResourceAwareScheduler(), shortCfg())
	tr := res.Topology("chain")
	if tr.TuplesDelivered > tr.TuplesEmitted {
		t.Fatalf("delivered %d > emitted %d", tr.TuplesDelivered, tr.TuplesEmitted)
	}
	// Emission is bounded by max-pending: emitted - delivered <= pending
	// window per spout task (3 tasks x 64) plus tuples still in queues.
	slack := tr.TuplesEmitted - tr.TuplesDelivered
	if slack > 3*64+3*128*2 {
		t.Fatalf("implausible in-flight slack %d", slack)
	}
}

func TestCPUOverloadSlowsThroughput(t *testing.T) {
	// Place the whole topology on one node twice: once within capacity,
	// once overcommitted 4x. The overloaded run must be slower.
	c := emulabCluster(t)
	node := c.NodeIDs()[0]
	makeAssign := func(topo *topology.Topology) *core.Assignment {
		a := core.NewAssignment(topo.Name(), "manual")
		for _, task := range topo.Tasks() {
			a.Place(task.ID, core.Placement{Node: node, Slot: 0})
		}
		return a
	}
	run := func(cpuLoad float64) float64 {
		topo := chainTopo(t, 1, 100*time.Microsecond, 100*time.Microsecond, 128, cpuLoad)
		sim, err := New(c, shortCfg())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := sim.AddTopology(topo, makeAssign(topo)); err != nil {
			t.Fatalf("AddTopology: %v", err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Topology("chain").MeanSinkThroughput
	}
	fit := run(30)       // 3 tasks x 30 = 90 <= 100 points
	overload := run(130) // 3 x 130 = 390 => slowdown 3.9
	if overload >= fit*0.5 {
		t.Fatalf("overloaded throughput %v not clearly below fit %v", overload, fit)
	}
}

func TestNICBoundThroughputScalesWithTupleSize(t *testing.T) {
	// Two nodes, spout on one and sink bolt on the other: all traffic
	// crosses one 100 Mbps NIC. Tuples 4x larger => roughly 4x fewer
	// tuples per second.
	c, err := cluster.TwoRack(1, 2, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatalf("TwoRack: %v", err)
	}
	run := func(bytes int) float64 {
		b := topology.NewBuilder("wire")
		b.SetMaxSpoutPending(512) // don't let latency dominate
		b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
			SetProfile(topology.ExecProfile{CPUPerTuple: 5 * time.Microsecond, TupleBytes: bytes})
		b.SetBolt("d", 1).ShuffleGrouping("s").SetCPULoad(5).SetMemoryLoad(64).
			SetProfile(topology.ExecProfile{CPUPerTuple: 5 * time.Microsecond, TupleBytes: bytes})
		topo, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		a := core.NewAssignment("wire", "manual")
		a.Place(0, core.Placement{Node: c.NodeIDs()[0], Slot: 0})
		a.Place(1, core.Placement{Node: c.NodeIDs()[1], Slot: 0})
		sim, err := New(c, shortCfg())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := sim.AddTopology(topo, a); err != nil {
			t.Fatalf("AddTopology: %v", err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Topology("wire").MeanSinkThroughput
	}
	small := run(1024)
	large := run(4096)
	ratio := small / large
	if ratio < 3 || ratio > 5 {
		t.Fatalf("4x tuple size => throughput ratio %.2f, want ~4 (small=%v large=%v)",
			ratio, small, large)
	}
}

func TestColocationBeatsRemotePlacement(t *testing.T) {
	// Same chain on one node vs spread across racks: colocated must win
	// under closed-loop pacing (latency bounds throughput).
	c := emulabCluster(t)
	topoOf := func(name string) *topology.Topology {
		b := topology.NewBuilder(name)
		b.SetSpout("s", 1).SetCPULoad(10).SetMemoryLoad(64).
			SetProfile(topology.ExecProfile{CPUPerTuple: 20 * time.Microsecond, TupleBytes: 512})
		b.SetBolt("m", 1).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(64).
			SetProfile(topology.ExecProfile{CPUPerTuple: 20 * time.Microsecond, TupleBytes: 512})
		b.SetBolt("z", 1).ShuffleGrouping("m").SetCPULoad(10).SetMemoryLoad(64).
			SetProfile(topology.ExecProfile{CPUPerTuple: 20 * time.Microsecond, TupleBytes: 512})
		topo, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return topo
	}
	run := func(topo *topology.Topology, nodes []cluster.NodeID) float64 {
		a := core.NewAssignment(topo.Name(), "manual")
		for i, task := range topo.Tasks() {
			a.Place(task.ID, core.Placement{Node: nodes[i%len(nodes)], Slot: 0})
		}
		sim, err := New(c, shortCfg())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := sim.AddTopology(topo, a); err != nil {
			t.Fatalf("AddTopology: %v", err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res.Topology(topo.Name()).MeanSinkThroughput
	}
	ids := c.NodeIDs()
	colocated := run(topoOf("colo"), []cluster.NodeID{ids[0]})
	spread := run(topoOf("spread"), []cluster.NodeID{ids[0], ids[6], ids[1]}) // cross-rack hops
	if colocated <= spread {
		t.Fatalf("colocated %v not better than cross-rack %v", colocated, spread)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	topo := chainTopo(t, 2, 100*time.Microsecond, 100*time.Microsecond, 256, 40)
	c := emulabCluster(t)
	res := runOnce(t, topo, c, core.NewResourceAwareScheduler(), shortCfg())
	if res.NodesUsed == 0 {
		t.Fatal("no nodes used")
	}
	for id, u := range res.NodeUtilization {
		if u < 0 || u > 1 {
			t.Errorf("node %s utilization %v out of range", id, u)
		}
	}
	if res.MeanUtilizationUsed <= 0 || res.MeanUtilizationUsed > 1 {
		t.Errorf("mean utilization = %v", res.MeanUtilizationUsed)
	}
}

func TestNodeFailureDropsTuplesButDoesNotWedge(t *testing.T) {
	// Bolts are slower than the spout, so input queues hold a backlog
	// when the node dies and those tuples are dropped.
	topo := chainTopo(t, 2, 100*time.Microsecond, 400*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	// Kill a node carrying bolt tasks halfway through.
	victim := a.NodesUsed()[len(a.NodesUsed())-1]
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: victim, At: 5 * time.Second}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TuplesDropped == 0 {
		t.Error("expected dropped tuples after node failure")
	}
	tr := res.Topology("chain")
	if tr.TuplesDelivered == 0 {
		t.Error("no tuples delivered before failure")
	}
}

func TestFailNodeValidation(t *testing.T) {
	c := emulabCluster(t)
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: "ghost", At: time.Second}); err == nil {
		t.Error("unknown node accepted")
	}
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: c.NodeIDs()[0], At: -time.Second}); err == nil {
		t.Error("negative failure time accepted")
	}
}

func TestSimulationDeterministic(t *testing.T) {
	topo := chainTopo(t, 2, 150*time.Microsecond, 100*time.Microsecond, 512, 20)
	c := emulabCluster(t)
	r1 := runOnce(t, topo, c, core.NewResourceAwareScheduler(), shortCfg())
	r2 := runOnce(t, topo, c, core.NewResourceAwareScheduler(), shortCfg())
	t1, t2 := r1.Topology("chain"), r2.Topology("chain")
	if t1.TuplesEmitted != t2.TuplesEmitted || t1.TuplesDelivered != t2.TuplesDelivered {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d",
			t1.TuplesEmitted, t1.TuplesDelivered, t2.TuplesEmitted, t2.TuplesDelivered)
	}
	for i := range t1.SinkSeries {
		if t1.SinkSeries[i] != t2.SinkSeries[i] {
			t.Fatalf("series diverge at %d: %v vs %v", i, t1.SinkSeries, t2.SinkSeries)
		}
	}
}

func TestSimulationValidation(t *testing.T) {
	c := emulabCluster(t)
	topo := chainTopo(t, 1, time.Millisecond, time.Millisecond, 128, 10)

	if _, err := New(c, Config{Duration: -time.Second}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := New(c, Config{Duration: time.Second, MetricsWindow: time.Minute}); err == nil {
		t.Error("window > duration accepted")
	}
	if _, err := New(c, Config{Duration: time.Second, MetricsWindow: -time.Millisecond}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := New(c, Config{Duration: 10 * time.Millisecond, MetricsWindow: time.Nanosecond}); err == nil ||
		!strings.Contains(err.Error(), "makes 10000000 windows, want at most 1000000") {
		t.Errorf("10^7 windows: err = %v, want a refusal naming both counts", err)
	}
	if _, err := New(c, Config{Duration: time.Second, MetricsWindow: time.Microsecond}); err != nil {
		t.Errorf("10^6 windows refused: %v", err)
	}

	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("run with no topologies accepted")
	}

	sim2, _ := New(c, shortCfg())
	bad := core.NewAssignment("other", "x")
	if err := sim2.AddTopology(topo, bad); err == nil || !strings.Contains(err.Error(), "assignment is for") {
		t.Errorf("mismatched assignment err = %v", err)
	}
	incomplete := core.NewAssignment("chain", "x")
	if err := sim2.AddTopology(topo, incomplete); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete assignment err = %v", err)
	}

	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if err := sim2.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if err := sim2.AddTopology(topo, a); err == nil {
		t.Error("duplicate topology accepted")
	}
	if _, err := sim2.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := sim2.Run(); err == nil {
		t.Error("second Run accepted")
	}
	if err := sim2.AddTopology(topo, a); err == nil {
		t.Error("AddTopology after Run accepted")
	}
	if err := sim2.InjectFault(faults.Fault{Kind: faults.Crash, Node: c.NodeIDs()[0], At: time.Second}); err == nil {
		t.Error("crash after Run accepted")
	}
}

func TestGroupingsRouteCorrectly(t *testing.T) {
	// fields grouping: same key goes to same task; global: everything to
	// task 0. Verified via per-component processed counts.
	b := topology.NewBuilder("groups")
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 64, KeyCardinality: 1})
	b.SetBolt("fields", 4).FieldsGrouping("s", "k").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 10 * time.Microsecond, TupleBytes: 64})
	b.SetBolt("global", 3).GlobalGrouping("fields").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 10 * time.Microsecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := emulabCluster(t)
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := res.Topology("groups")
	// With key cardinality 1, exactly one "fields" task ever processes;
	// totals still flow through to the global sink.
	if tr.TuplesDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	// All delivered tuples went through the single global task: the
	// component series for "global" must equal the sink series.
	globalTotal := 0.0
	for _, v := range tr.ComponentSeries["global"] {
		globalTotal += v
	}
	if int64(globalTotal) != tr.TuplesDelivered {
		t.Errorf("global processed %v != delivered %d", globalTotal, tr.TuplesDelivered)
	}
}

func TestAllGroupingReplicates(t *testing.T) {
	b := topology.NewBuilder("fanout")
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 200 * time.Microsecond, TupleBytes: 64})
	b.SetBolt("all", 3).AllGrouping("s").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 10 * time.Microsecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := emulabCluster(t)
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := res.Topology("fanout")
	// Every emitted tuple is replicated to all 3 sink tasks.
	low, high := 2.5, 3.5
	ratio := float64(tr.TuplesDelivered) / float64(tr.TuplesEmitted)
	if ratio < low || ratio > high {
		t.Fatalf("all-grouping delivery ratio %.2f, want ~3 (emitted=%d delivered=%d)",
			ratio, tr.TuplesEmitted, tr.TuplesDelivered)
	}
}

func TestOutRatioFilters(t *testing.T) {
	b := topology.NewBuilder("filter")
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 64})
	b.SetBolt("half", 1).ShuffleGrouping("s").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 10 * time.Microsecond, TupleBytes: 64, OutRatio: 0.5})
	b.SetBolt("sink", 1).ShuffleGrouping("half").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 10 * time.Microsecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := emulabCluster(t)
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr := res.Topology("filter")
	ratio := float64(tr.TuplesDelivered) / float64(tr.TuplesEmitted)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("filter ratio %.2f, want ~0.5", ratio)
	}
}

func TestResultString(t *testing.T) {
	topo := chainTopo(t, 1, 500*time.Microsecond, 100*time.Microsecond, 128, 10)
	c := emulabCluster(t)
	res := runOnce(t, topo, c, core.NewResourceAwareScheduler(), shortCfg())
	if s := res.String(); !strings.Contains(s, "chain") {
		t.Errorf("String = %q", s)
	}
	if res.Topology("nope") != nil {
		t.Error("unknown topology should be nil")
	}
	if res.TotalMeanThroughput() <= 0 {
		t.Error("TotalMeanThroughput <= 0")
	}
}
