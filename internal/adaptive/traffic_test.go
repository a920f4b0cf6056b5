package adaptive

import (
	"strings"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/workloads"
)

// chattySamples synthesizes one window of task samples for a two-task
// chain a→b with the given edge count, split across two nodes.
func chattySamples(window time.Duration, tuples int64, remote bool) []simulator.TaskSample {
	return []simulator.TaskSample{
		{
			Topology: "t", Component: "a", TaskID: 0, Node: "n0", Spout: true,
			WindowStart: 0, WindowEnd: window,
			NodeCPUCapacity: 100, Slowdown: 1,
			Edges: []simulator.EdgeRate{
				{DestTaskID: 1, DestComponent: "b", Tuples: tuples, Remote: remote},
			},
		},
		{
			Topology: "t", Component: "b", TaskID: 1, Node: "n1", Sink: true,
			WindowStart: 0, WindowEnd: window,
			NodeCPUCapacity: 100, Slowdown: 1,
		},
	}
}

// TestProfilerFoldsEdgeRates: per-edge window counts become an EWMA
// component-pair rate, cumulative totals track remote traffic, and the
// materialized TrafficMatrix carries the rate.
func TestProfilerFoldsEdgeRates(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	p.OnWindow(chattySamples(time.Second, 1000, true))
	edges := p.EdgeStats("t")
	if len(edges) != 1 {
		t.Fatalf("edges = %+v, want 1", edges)
	}
	e := edges[0]
	if e.From != "a" || e.To != "b" {
		t.Errorf("edge pair = %s->%s", e.From, e.To)
	}
	if e.RatePerSec != 1000 {
		t.Errorf("first-window rate = %v, want 1000", e.RatePerSec)
	}
	if e.Tuples != 1000 || e.RemoteTuples != 1000 {
		t.Errorf("totals = %d/%d, want 1000/1000", e.Tuples, e.RemoteTuples)
	}

	// Second window at half the rate, now local: EWMA folds, totals add,
	// remote stays at the first window's count.
	p.OnWindow(chattySamples(time.Second, 500, false))
	e = p.EdgeStats("t")[0]
	if e.RatePerSec != 750 { // 0.5*500 + 0.5*1000
		t.Errorf("EWMA rate = %v, want 750", e.RatePerSec)
	}
	if e.Tuples != 1500 || e.RemoteTuples != 1000 {
		t.Errorf("totals = %d/%d, want 1500/1000", e.Tuples, e.RemoteTuples)
	}
	if got := e.InterNodeFraction(); got != 1000.0/1500.0 {
		t.Errorf("fraction = %v", got)
	}

	m := p.TrafficMatrix("t")
	if m == nil || m.Rate("a", "b") != 750 {
		t.Fatalf("matrix = %v, want a->b at 750/s", m)
	}
	if p.TrafficMatrix("other") != nil {
		t.Error("unknown topology should have a nil matrix")
	}
}

// runChatty drives the adaptive loop over a ChattyChain placement and
// returns the result. trafficObjective toggles the tentpole: the
// consolidation objective on the imbalance trigger.
func runChatty(t *testing.T, topo *topology.Topology, trafficObjective bool) *LoopResult {
	t.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	sched := core.NewResourceAwareScheduler()
	state := core.NewGlobalState(c)
	a, err := sched.Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	sim, err := simulator.New(c, simulator.Config{
		Duration:      8 * time.Second,
		MetricsWindow: 500 * time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	loop := NewLoop(sim, c, sched, LoopConfig{
		Controller: ControllerConfig{TrafficObjective: trafficObjective},
	})
	if err := loop.Manage(topo, a); err != nil {
		t.Fatalf("Manage: %v", err)
	}
	res, err := loop.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestImbalanceTriggerConsolidates is the controller-path regression the
// tentpole exists for: on the spread-out chatty chain the cold-topology
// (imbalance) trigger fires, and with the traffic objective it now
// produces moves that cut the inter-node tuple fraction. Without the
// objective the same trigger fires and still produces nothing — the
// pre-tentpole behavior, kept as the control.
func TestImbalanceTriggerConsolidates(t *testing.T) {
	spread, err := workloads.ChattyChain(false)
	if err != nil {
		t.Fatal(err)
	}
	res := runChatty(t, spread, true)
	if len(res.Events) == 0 {
		t.Fatal("traffic objective produced no rebalances on the spread chain")
	}
	for _, e := range res.Events {
		if e.Trigger != TriggerImbalance {
			t.Errorf("unexpected trigger %q (moves=%d)", e.Trigger, e.Moves)
		}
	}
	if res.TotalMoves() == 0 || res.TotalMoves() >= spread.TotalTasks() {
		t.Errorf("moves = %d, want within (0, %d)", res.TotalMoves(), spread.TotalTasks())
	}
	if frac := res.Result.Topology("chatty").InterNodeFraction(); frac > 0.4 {
		t.Errorf("inter-node fraction %.2f after consolidation, want well below the spread ~0.67", frac)
	}

	// Control: the distance objective on the identical scenario. The
	// trigger fires (the topology is cold) but the symmetric distance
	// finds nothing to improve — no moves, which is exactly the gap the
	// traffic objective closes.
	spread2, err := workloads.ChattyChain(false)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := runChatty(t, spread2, false)
	if n := ctrl.TotalMoves(); n != 0 {
		t.Errorf("distance objective moved %d tasks on the cold chain; expected none", n)
	}
	status := ctrl.Status.Topologies
	if len(status) != 1 || !strings.Contains(status[0].LastAction, TriggerImbalance) {
		t.Errorf("imbalance trigger never fired without the objective: %+v", status)
	}
}

// TestImbalanceTriggerQuietWhenPacked: on an honestly-declared chain
// R-Storm already packs the chatty edges locally; the traffic objective
// must not manufacture moves for a placement with nothing to improve.
func TestImbalanceTriggerQuietWhenPacked(t *testing.T) {
	packed, err := workloads.ChattyChain(true)
	if err != nil {
		t.Fatal(err)
	}
	res := runChatty(t, packed, true)
	if n := res.TotalMoves(); n != 0 {
		t.Errorf("traffic objective moved %d tasks on the packed chain; want 0", n)
	}
	if frac := res.Result.Topology("chatty").InterNodeFraction(); frac > 0.05 {
		t.Errorf("packed chain inter-node fraction %.2f, want ~0", frac)
	}
}

// TestEdgeRateDecaysWhenSourceDies: an edge whose source component has no
// live tasks left must snap its rate to zero (matching the component
// decay) instead of serving its last hot value forever; cumulative totals
// stay as history.
func TestEdgeRateDecaysWhenSourceDies(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	p.OnWindow(chattySamples(time.Second, 1000, true))
	if got := p.EdgeStats("t")[0].RatePerSec; got != 1000 {
		t.Fatalf("rate = %v, want 1000", got)
	}
	// The source task dies mid-window after delivering 200 tuples: that
	// death-window traffic is real (the simulator counted it in
	// TuplesSent) and must reach the cumulative totals and the rate fold.
	dying := chattySamples(time.Second, 200, true)
	dying[0].Dead = true
	p.OnWindow(dying)
	e := p.EdgeStats("t")[0]
	if e.RatePerSec != 600 { // 0.5*200 + 0.5*1000
		t.Errorf("death-window rate = %v, want 600", e.RatePerSec)
	}
	if e.Tuples != 1200 || e.RemoteTuples != 1200 {
		t.Errorf("death-window totals = %d/%d, want 1200/1200", e.Tuples, e.RemoteTuples)
	}
	// Later windows: the dead task's edges are all zero and must not hold
	// the pair live — the rate snaps to zero, totals stay as history.
	dead := chattySamples(time.Second, 0, false)
	dead[0].Dead = true
	p.OnWindow(dead)
	e = p.EdgeStats("t")[0]
	if e.RatePerSec != 0 {
		t.Errorf("dead source edge rate = %v, want 0", e.RatePerSec)
	}
	if e.Tuples != 1200 || e.RemoteTuples != 1200 {
		t.Errorf("cumulative totals changed: %d/%d, want 1200/1200", e.Tuples, e.RemoteTuples)
	}
	if m := p.TrafficMatrix("t"); m.Rate("a", "b") != 0 {
		t.Errorf("matrix still carries phantom rate %v", m.Rate("a", "b"))
	}
}
