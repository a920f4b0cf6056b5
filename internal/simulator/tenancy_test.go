package simulator

import (
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/topology"
)

// pairTopo builds a spout -> bolt pair with one task each.
func pairTopo(t *testing.T, name string, cpu float64) *topology.Topology {
	t.Helper()
	prof := topology.ExecProfile{CPUPerTuple: 500 * time.Microsecond, TupleBytes: 128}
	b := topology.NewBuilder(name)
	b.SetSpout("s", 1).SetCPULoad(cpu).SetMemoryLoad(256).SetProfile(prof)
	b.SetBolt("z", 1).ShuffleGrouping("s").SetCPULoad(cpu).SetMemoryLoad(256).SetProfile(prof)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func pairAssignment(topo *topology.Topology, spoutNode, boltNode cluster.NodeID) *core.Assignment {
	a := core.NewAssignment(topo.Name(), "manual")
	a.Place(0, core.Placement{Node: spoutNode, Slot: 0})
	a.Place(1, core.Placement{Node: boltNode, Slot: 1})
	return a
}

// windowCount sums a series over window indexes [from, to).
func seriesSum(series []float64, from, to int) float64 {
	var sum float64
	for i := from; i < to && i < len(series); i++ {
		sum += series[i]
	}
	return sum
}

func TestSubmitTopologyMidRunStartsFlow(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	first := pairTopo(t, "first", 40)
	if err := sim.AddTopology(first, pairAssignment(first, ids[0], ids[1])); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	late := pairTopo(t, "late", 40)
	if err := sim.SubmitTopology(late, pairAssignment(late, ids[2], ids[3])); err != nil {
		t.Fatalf("SubmitTopology: %v", err)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	lr := res.Topology("late")
	if lr == nil || lr.TuplesDelivered == 0 {
		t.Fatalf("late topology produced nothing: %+v", lr)
	}
	// Nothing before admission, flow after.
	if pre := seriesSum(lr.SinkSeries, 0, 5); pre != 0 {
		t.Errorf("late topology delivered %v tuples before admission", pre)
	}
	if post := seriesSum(lr.SinkSeries, 5, 10); post <= 0 {
		t.Errorf("late topology delivered nothing after admission: %v", lr.SinkSeries)
	}
	// The first topology ran the whole time.
	if fr := res.Topology("first"); fr.TuplesDelivered == 0 {
		t.Error("first topology produced nothing")
	}
}

func TestSubmitTopologyContendsWithResidents(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	run := func(stack bool) float64 {
		sim, err := New(c, shortCfg())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		resident := pairTopo(t, "resident", 80)
		if err := sim.AddTopology(resident, pairAssignment(resident, ids[0], ids[1])); err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunTo(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		late := pairTopo(t, "late", 80)
		target := pairAssignment(late, ids[2], ids[3])
		if stack {
			target = pairAssignment(late, ids[0], ids[1]) // 160 points per node
		}
		if err := sim.SubmitTopology(late, target); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Finish()
		if err != nil {
			t.Fatal(err)
		}
		// Resident throughput after the admission epoch.
		return seriesSum(res.Topology("resident").SinkSeries, 2, 10)
	}
	apart := run(false)
	stacked := run(true)
	if apart <= 0 {
		t.Fatal("resident idle when apart")
	}
	// Stacking 160 true points on 100-point nodes must slow the resident:
	// mid-run admission refreezes contention on the shared nodes.
	if stacked > 0.75*apart {
		t.Errorf("mid-run admission did not contend: stacked %v vs apart %v", stacked, apart)
	}
}

func TestKillTopologyStopsFlowAndFreesContention(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Two tenants stacked on the same nodes, 160 points per 100-point node.
	one := pairTopo(t, "one", 80)
	two := pairTopo(t, "two", 80)
	if err := sim.AddTopology(one, pairAssignment(one, ids[0], ids[1])); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTopology(two, pairAssignment(two, ids[0], ids[1])); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.KillTopology("two"); err != nil {
		t.Fatalf("KillTopology: %v", err)
	}
	if err := sim.KillTopology("two"); err == nil {
		t.Error("double kill accepted")
	}
	if err := sim.KillTopology("ghost"); err == nil {
		t.Error("kill of unknown topology accepted")
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	two2 := res.Topology("two")
	if post := seriesSum(two2.SinkSeries, 6, 10); post != 0 {
		t.Errorf("killed topology still delivering: %v", two2.SinkSeries)
	}
	oneR := res.Topology("one")
	before := seriesSum(oneR.SinkSeries, 2, 5) / 3
	after := seriesSum(oneR.SinkSeries, 6, 10) / 4
	// The survivor's contention stretch (1.6x) departs with the victim.
	if after <= before*1.3 {
		t.Errorf("survivor did not speed up after kill: before %v/s after %v/s", before, after)
	}
}

// TestKillTopologyReleasesSpoutCredits drives a kill while tuples are
// queued and in flight, then checks the surviving topology and the global
// accounting: drained tuples count as migrated, and the dead tenant's
// spout is not wedged (its trees all complete — no leaked max-pending
// credits would be observable as a hang if the topology were revived).
func TestKillTopologyReleasesSpoutCreditsAndRevives(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// A bolt slower than its spout keeps a backlog queued, so the kill has
	// something to drain.
	b := topology.NewBuilder("phoenix")
	b.SetSpout("s", 1).SetCPULoad(40).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 200 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("z", 1).ShuffleGrouping("s").SetCPULoad(40).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 2 * time.Millisecond, TupleBytes: 128})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := sim.AddTopology(topo, pairAssignment(topo, ids[0], ids[1])); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.KillTopology("phoenix"); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Revive on different nodes.
	if err := sim.SubmitTopology(topo, pairAssignment(topo, ids[4], ids[5])); err != nil {
		t.Fatalf("revive: %v", err)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Topology("phoenix")
	if mid := seriesSum(tr.SinkSeries, 4, 6); mid != 0 {
		t.Errorf("dead interval delivered %v tuples", mid)
	}
	post := seriesSum(tr.SinkSeries, 7, 10)
	if post <= 0 {
		t.Errorf("revived topology delivers nothing (wedged spout?): %v", tr.SinkSeries)
	}
	// The revived rate should match the pre-kill rate: same profile,
	// uncontended nodes both times.
	pre := seriesSum(tr.SinkSeries, 1, 3) / 2
	if post/3 < pre*0.9 {
		t.Errorf("revived rate %v/s below pre-kill rate %v/s", post/3, pre)
	}
	if res.TuplesMigrated == 0 {
		t.Error("kill drained nothing through the migration path")
	}
	// Revived on new nodes: the result sees all four hosts used.
	if got := len(tr.SinkSeries); got != 10 {
		t.Fatalf("series length %d", got)
	}
}

func TestSubmitValidationMidRun(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	sim, err := New(c, shortCfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topo := pairTopo(t, "base", 40)
	if err := sim.SubmitTopology(topo, pairAssignment(topo, ids[0], ids[1])); err == nil {
		t.Error("mid-run submit accepted before Start")
	}
	if err := sim.AddTopology(topo, pairAssignment(topo, ids[0], ids[1])); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	// Live name: revival path must refuse.
	dup := pairTopo(t, "base", 40)
	if err := sim.SubmitTopology(dup, pairAssignment(dup, ids[2], ids[3])); err == nil {
		t.Error("submit of a live name accepted")
	}
	// Incomplete assignment refused.
	other := pairTopo(t, "other", 40)
	bad := core.NewAssignment("other", "manual")
	bad.Place(0, core.Placement{Node: ids[0], Slot: 0})
	if err := sim.SubmitTopology(other, bad); err == nil {
		t.Error("incomplete assignment accepted")
	}
}

// TestTenancyDeterministic runs the same submit/kill/revive scenario twice
// and requires identical results — the multitenant experiment's
// determinism rests on this.
func TestTenancyDeterministic(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	run := func() *Result {
		sim, err := New(c, shortCfg())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		a := pairTopo(t, "a", 60)
		bT := pairTopo(t, "b", 60)
		if err := sim.AddTopology(a, pairAssignment(a, ids[0], ids[1])); err != nil {
			t.Fatal(err)
		}
		if err := sim.AddTopology(bT, pairAssignment(bT, ids[0], ids[1])); err != nil {
			t.Fatal(err)
		}
		if err := sim.Start(); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunTo(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sim.KillTopology("b"); err != nil {
			t.Fatal(err)
		}
		late := pairTopo(t, "late", 60)
		if err := sim.SubmitTopology(late, pairAssignment(late, ids[2], ids[3])); err != nil {
			t.Fatal(err)
		}
		if err := sim.RunTo(6 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := sim.SubmitTopology(bT, pairAssignment(bT, ids[4], ids[5])); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for _, name := range []string{"a", "b", "late"} {
		t1, t2 := r1.Topology(name), r2.Topology(name)
		if t1.TuplesEmitted != t2.TuplesEmitted || t1.TuplesDelivered != t2.TuplesDelivered {
			t.Errorf("%s diverged: %d/%d vs %d/%d tuples",
				name, t1.TuplesEmitted, t1.TuplesDelivered, t2.TuplesEmitted, t2.TuplesDelivered)
		}
		for i := range t1.SinkSeries {
			if t1.SinkSeries[i] != t2.SinkSeries[i] {
				t.Errorf("%s series diverged at window %d: %v vs %v",
					name, i, t1.SinkSeries[i], t2.SinkSeries[i])
			}
		}
	}
	if r1.TuplesMigrated != r2.TuplesMigrated || r1.TuplesDropped != r2.TuplesDropped {
		t.Errorf("drain counters diverged: %d/%d vs %d/%d",
			r1.TuplesMigrated, r1.TuplesDropped, r2.TuplesMigrated, r2.TuplesDropped)
	}
}

// TestReviveCreditsOldHost kills a topology while its bolt has a tuple in
// service and revives it elsewhere. The tuple finishes after the kill, on
// the bolt's old host; that busy time is credited to the old host, and
// the node the bolt is revived on reads no utilization.
func TestReviveCreditsOldHost(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	sim, err := New(c, Config{Duration: 2 * time.Second, MetricsWindow: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topo := pairTopo(t, "phoenix", 40)
	if err := sim.AddTopology(topo, pairAssignment(topo, ids[0], ids[1])); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.KillTopology("phoenix"); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunTo(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.SubmitTopology(topo, pairAssignment(topo, ids[4], ids[5])); err != nil {
		t.Fatalf("revive: %v", err)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if u := res.NodeUtilization[ids[5]]; u != 0 {
		t.Errorf("revived bolt's host %s reads utilization %v, want 0", ids[5], u)
	}
	if u := res.NodeUtilization[ids[1]]; u <= 0 {
		t.Errorf("old bolt host %s reads utilization %v, want > 0", ids[1], u)
	}
}
