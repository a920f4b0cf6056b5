package simulator

import (
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/topology"
)

// collector is a test Observer that copies every window's samples.
type collector struct {
	windows [][]TaskSample
}

func (c *collector) OnWindow(samples []TaskSample) {
	c.windows = append(c.windows, append([]TaskSample(nil), samples...))
}

// spoutEmittedIn sums spout emissions in window w.
func (c *collector) spoutEmittedIn(w int) int64 {
	var n int64
	for _, s := range c.windows[w] {
		if s.Spout {
			n += s.Emitted
		}
	}
	return n
}

// twoNodeChain builds spout -> sink placed on separate nodes.
func twoNodeChain(t *testing.T, boltCost time.Duration, maxPending int) (*topology.Topology, *core.Assignment) {
	t.Helper()
	b := topology.NewBuilder("pair")
	b.SetMaxSpoutPending(maxPending)
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: time.Millisecond, TupleBytes: 64})
	b.SetBolt("d", 1).ShuffleGrouping("s").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: boltCost, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo, nil
}

// TestDeadTaskInServiceReturnsCredit is the regression for the boltFire
// credit leak: a bolt killed mid-service used to swallow the in-flight
// tuple without failing its tree, leaking a max-pending credit. With
// max-pending 1, one leak wedged the spout for the rest of the run.
func TestDeadTaskInServiceReturnsCredit(t *testing.T) {
	c, err := cluster.TwoRack(1, 2, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatalf("TwoRack: %v", err)
	}
	topo, _ := twoNodeChain(t, 50*time.Millisecond, 1)
	a := core.NewAssignment("pair", "manual")
	a.Place(0, core.Placement{Node: c.NodeIDs()[0], Slot: 0})
	a.Place(1, core.Placement{Node: c.NodeIDs()[1], Slot: 0})

	sim, err := New(c, Config{Duration: 3 * time.Second, MetricsWindow: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	obs := &collector{}
	if err := sim.SetObserver(obs); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	// Kill the bolt's node while it is mid-service (50ms services back to
	// back: it is essentially always busy).
	if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: c.NodeIDs()[1], At: 1100 * time.Millisecond}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TuplesDropped == 0 {
		t.Error("in-service tuple of the dead bolt was not counted in TuplesDropped")
	}
	// The spout must keep emitting after the failure (credits recovered);
	// before the fix it wedged with inFlight stuck at max-pending.
	last := len(obs.windows) - 1
	if got := obs.spoutEmittedIn(last); got == 0 {
		t.Errorf("spout wedged after node failure: 0 emissions in final window")
	}
	if tr := res.Topology("pair"); tr.TuplesEmitted < 100 {
		t.Errorf("emitted %d, want spout to free-run after failure", tr.TuplesEmitted)
	}
}

// TestObserverSamplesWindows checks the metrics tap: one sample per task
// per window, utilizations and queue fills in range, deterministic count.
func TestObserverSamplesWindows(t *testing.T) {
	topo := chainTopo(t, 2, 150*time.Microsecond, 100*time.Microsecond, 256, 20)
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
	obs := &collector{}
	if err := sim.SetObserver(obs); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := len(obs.windows), 10; got != want {
		t.Fatalf("windows = %d, want %d", got, want)
	}
	for w, samples := range obs.windows {
		if len(samples) != topo.TotalTasks() {
			t.Fatalf("window %d: %d samples, want %d", w, len(samples), topo.TotalTasks())
		}
		for _, s := range samples {
			if s.Window != w {
				t.Errorf("window index %d inside flush %d", s.Window, w)
			}
			if u := s.Utilization(); u < 0 || u > 1 {
				t.Errorf("utilization %v out of range", u)
			}
			if s.QueueCap != queueCapacity {
				t.Errorf("queue cap %d not propagated", s.QueueCap)
			}
			if s.Slowdown < 1 {
				t.Errorf("slowdown %v < 1", s.Slowdown)
			}
		}
	}
	// Work flowed, so the busiest component must show nonzero processing.
	var processed int64
	for _, s := range obs.windows[len(obs.windows)-1] {
		processed += s.Processed
	}
	if processed == 0 {
		t.Error("no processing observed in final window")
	}
	if err := sim.SetObserver(nil); err == nil {
		t.Error("SetObserver after start accepted")
	}
}

// TestReassignRelievesOvercommit runs the chain packed onto one node with a
// mis-declared heavy stage, then migrates the heavy tasks to idle nodes
// mid-run: post-migration windows must outperform pre-migration ones.
func TestReassignRelievesOvercommit(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	b := topology.NewBuilder("elastic")
	b.SetSpout("s", 1).SetCPULoad(10).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 64})
	// Declared light (10) but truly heavy (90 points): packing four of
	// these on one 100-point node overcommits it 3.7x.
	b.SetBolt("work", 4).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 2 * time.Millisecond, TupleBytes: 64, CPUPoints: 90})
	b.SetBolt("z", 1).ShuffleGrouping("work").SetCPULoad(10).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	packed := core.NewAssignment("elastic", "manual")
	for _, task := range topo.Tasks() {
		packed.Place(task.ID, core.Placement{Node: ids[0], Slot: 0})
	}

	sim, err := New(c, Config{Duration: 12 * time.Second, MetricsWindow: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, packed); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunTo(6 * time.Second); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	// Spread the heavy bolts across idle same-rack nodes.
	spread := core.NewAssignment("elastic", "manual")
	for _, task := range topo.Tasks() {
		p := packed.Placements[task.ID]
		if task.Component == "work" && task.Index > 0 {
			p = core.Placement{Node: ids[task.Index], Slot: 0}
		}
		spread.Place(task.ID, p)
	}
	moved, err := sim.Reassign("elastic", spread)
	if err != nil {
		t.Fatalf("Reassign: %v", err)
	}
	if moved != 3 {
		t.Fatalf("moved = %d, want 3", moved)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	tr := res.Topology("elastic")
	pre := tr.SinkSeries[4] // steady overcommitted window
	post := tr.SinkSeries[len(tr.SinkSeries)-1]
	if post < 2*pre {
		t.Errorf("migration did not relieve overcommit: pre=%v post=%v series=%v",
			pre, post, tr.SinkSeries)
	}
	if tr.NodesUsed != 4 {
		t.Errorf("NodesUsed = %d after migration, want 4", tr.NodesUsed)
	}

	// Lifecycle and validation errors.
	if _, err := sim.Reassign("elastic", spread); err == nil {
		t.Error("Reassign after Finish accepted")
	}
	if _, err := sim.Finish(); err == nil {
		t.Error("second Finish accepted")
	}
}

// TestReassignValidation covers the error paths of the epoch API.
func TestReassignValidation(t *testing.T) {
	c := emulabCluster(t)
	topo := chainTopo(t, 1, time.Millisecond, time.Millisecond, 128, 10)
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
	if _, err := sim.Reassign("chain", a); err == nil {
		t.Error("Reassign before Start accepted")
	}
	if err := sim.RunTo(time.Second); err == nil {
		t.Error("RunTo before Start accepted")
	}
	if _, err := sim.Finish(); err == nil {
		t.Error("Finish before Start accepted")
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.Start(); err == nil {
		t.Error("second Start accepted")
	}
	if _, err := sim.Reassign("ghost", a); err == nil {
		t.Error("unknown topology accepted")
	}
	other := core.NewAssignment("other", "x")
	if _, err := sim.Reassign("chain", other); err == nil {
		t.Error("mismatched assignment accepted")
	}
	incomplete := core.NewAssignment("chain", "x")
	if _, err := sim.Reassign("chain", incomplete); err == nil {
		t.Error("incomplete assignment accepted")
	}
	bad := core.NewAssignment("chain", "x")
	for _, task := range topo.Tasks() {
		bad.Place(task.ID, core.Placement{Node: "ghost-node", Slot: 0})
	}
	if _, err := sim.Reassign("chain", bad); err == nil {
		t.Error("unknown node accepted")
	}
	// Identical assignment: a no-op, not an error.
	if moved, err := sim.Reassign("chain", a); err != nil || moved != 0 {
		t.Errorf("no-op Reassign = %d, %v", moved, err)
	}
	if _, err := sim.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestFailQueueFailsBeforeReleasing pins failQueue's order: every queued
// tuple fails before any parked producer is released. A spout parked on
// its max-pending credit feeds a 1 ms bolt that is itself parked on a
// full 50 ms bolt's queue. Failing the slow bolt's queue completes the
// spout's trees, which wakes the spout, and releases the parked bolt; the
// wake must be scheduled before the release.
func TestFailQueueFailsBeforeReleasing(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	b := topology.NewBuilder("order")
	b.SetMaxSpoutPending(200)
	prof := func(cost time.Duration) topology.ExecProfile {
		return topology.ExecProfile{CPUPerTuple: cost, TupleBytes: 64}
	}
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).SetProfile(prof(time.Millisecond))
	b.SetBolt("p", 1).ShuffleGrouping("s").SetCPULoad(5).SetMemoryLoad(64).SetProfile(prof(time.Millisecond))
	b.SetBolt("q", 1).ShuffleGrouping("p").SetCPULoad(5).SetMemoryLoad(64).SetProfile(prof(50 * time.Millisecond))
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// One worker: hand-offs are local, so the 1 ms bolt parks on the slow
	// bolt's queue itself rather than on a NIC.
	a := core.NewAssignment("order", "manual")
	for i := range topo.Tasks() {
		a.Place(i, core.Placement{Node: ids[0], Slot: 0})
	}
	sim, err := New(c, Config{Duration: 4 * time.Second, MetricsWindow: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunTo(2 * time.Second); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	run := sim.runNamed("order")
	spout, producer, slow := run.ordered[0], run.ordered[1], run.ordered[2]
	if !spout.parked || slow.queue.len() != slow.queue.capacity || slow.queue.waiters.Len() != 1 {
		t.Fatalf("setup: spout parked %v, slow queue %d/%d with %d waiters; want parked, full, 1",
			spout.parked, slow.queue.len(), slow.queue.capacity, slow.queue.waiters.Len())
	}
	ln := slow.node.lane
	ln.failQueue(slow, true)
	wake, release := -1, -1
	for i, pe := range ln.eng.TakePending() {
		ev, ok := pe.Ev.(*simEvent)
		switch {
		case !ok:
		case wake < 0 && ev.kind == evSpoutCycle && ev.task == spout:
			wake = i
		case release < 0 && ev.kind == evComplete && ev.comp.task == producer:
			release = i
		}
	}
	if wake < 0 || release < 0 || wake > release {
		t.Errorf("pending spout wake at %d, producer release at %d: want both, the wake first", wake, release)
	}
}
