package adaptive

import (
	"math"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// sampleSpan builds a TaskSample over an explicit span of a run whose
// metrics window is 1s.
func sampleSpan(topo, comp string, id int, node cluster.NodeID, start, end time.Duration, busyFrac, slowdown float64) simulator.TaskSample {
	return simulator.TaskSample{
		Topology:        topo,
		Component:       comp,
		TaskID:          id,
		Node:            node,
		WindowStart:     start,
		WindowEnd:       end,
		FullWindow:      time.Second,
		Busy:            time.Duration(busyFrac * float64(end-start)),
		Slowdown:        slowdown,
		NodeCPUCapacity: 100,
		QueueCap:        128,
	}
}

// TestConfiguredWindowClassifiesSubWindowFirstFlushPartial: a profiler
// classifies each flush against the configured window its samples carry
// (TaskSample.FullWindow), so an external driver's sub-window first flush
// does NOT count as a full window of evidence. Inferring the window from
// the largest span seen counted it, and the next boundary's remainder too.
func TestConfiguredWindowClassifiesSubWindowFirstFlushPartial(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	// External driver Reassigns 250ms into the first window.
	p.OnWindow([]simulator.TaskSample{sampleSpan("t", "c", 0, "n0", 0, 250*time.Millisecond, 1, 1)})
	if p.LastFlushFull() {
		t.Error("sub-window first flush classified as full")
	}
	if p.Windows() != 0 {
		t.Errorf("Windows = %d after a partial flush, want 0", p.Windows())
	}
	// The remainder up to the window boundary is partial too.
	p.OnWindow([]simulator.TaskSample{sampleSpan("t", "c", 0, "n0", 250*time.Millisecond, time.Second, 1, 1)})
	if p.LastFlushFull() {
		t.Error("750ms remainder classified as full")
	}
	if p.Windows() != 0 {
		t.Errorf("Windows = %d, want 0", p.Windows())
	}
	// A true full window counts.
	p.OnWindow([]simulator.TaskSample{sampleSpan("t", "c", 0, "n0", time.Second, 2*time.Second, 1, 1)})
	if !p.LastFlushFull() {
		t.Error("full window classified as partial")
	}
	if p.Windows() != 1 {
		t.Errorf("Windows = %d, want 1", p.Windows())
	}
	// The same 250ms span is a full window in a run configured with 250ms
	// windows: the reference comes from the samples, not from the profiler.
	short := sampleSpan("t", "c", 0, "n0", 2*time.Second, 2250*time.Millisecond, 1, 1)
	short.FullWindow = 250 * time.Millisecond
	p.OnWindow([]simulator.TaskSample{short})
	if !p.LastFlushFull() || p.Windows() != 2 {
		t.Errorf("250ms span of a 250ms-window run: full = %v, Windows = %d; want true, 2",
			p.LastFlushFull(), p.Windows())
	}
}

// TestAttributionSplitsAcrossCoLocatedTopologies: a saturated node hosting
// two tenants must split its f·C true demand across BOTH topologies'
// tasks by busy share — per-tenant demand comes out exact, not inflated
// as if each tenant owned the node.
func TestAttributionSplitsAcrossCoLocatedTopologies(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	// Node n0: capacity 100, true demand 160 (f = 1.6): tenant A's task
	// and tenant B's task are both saturated (busy the whole stretched
	// window), so busy shares are equal and each recovers 80 points.
	p.OnWindow([]simulator.TaskSample{
		sampleSpan("tenant-a", "work", 0, "n0", 0, time.Second, 1, 1.6),
		sampleSpan("tenant-b", "work", 0, "n0", 0, time.Second, 1, 1.6),
	})
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		stats := p.Stats(tenant)
		if len(stats) != 1 {
			t.Fatalf("%s stats = %+v", tenant, stats)
		}
		if got := stats[0].CPUPoints; math.Abs(got-80) > 1e-9 {
			t.Errorf("%s CPUPoints = %v, want 80 (f·C split across tenants)", tenant, got)
		}
	}
}

// TestAttributionSplitUnevenBusyShares: co-located tenants with different
// busy times split the node's true demand proportionally.
func TestAttributionSplitUnevenBusyShares(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	// f = 1.5, C = 100 → node true demand 150. Busy 1.0 vs 0.5 → shares
	// 2/3 and 1/3 → 100 and 50 points.
	p.OnWindow([]simulator.TaskSample{
		sampleSpan("big", "w", 0, "n0", 0, time.Second, 1.0, 1.5),
		sampleSpan("small", "w", 0, "n0", 0, time.Second, 0.5, 1.5),
	})
	if got := p.Stats("big")[0].CPUPoints; math.Abs(got-100) > 1e-9 {
		t.Errorf("big CPUPoints = %v, want 100", got)
	}
	if got := p.Stats("small")[0].CPUPoints; math.Abs(got-50) > 1e-9 {
		t.Errorf("small CPUPoints = %v, want 50", got)
	}
}

// TestLiveSampleClearsDeadMark: a task marked dead (node failure, OOM,
// eviction) that samples live again — an evicted tenant revived by the
// control plane — must stop being pinned by the replanner.
func TestLiveSampleClearsDeadMark(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	dead := sampleSpan("t", "c", 3, "n0", 0, time.Second, 0, 1)
	dead.Dead = true
	p.OnWindow([]simulator.TaskSample{dead})
	if !p.DeadTasks("t")[3] {
		t.Fatal("dead mark not recorded")
	}
	p.OnWindow([]simulator.TaskSample{sampleSpan("t", "c", 3, "n1", time.Second, 2*time.Second, 0.5, 1)})
	if p.DeadTasks("t")[3] {
		t.Error("revived task still marked dead")
	}
}

// arbiterHarness builds a two-tenant stacked scenario where both
// topologies are hot (shared overcommitted nodes) and the loop must
// arbitrate: two chains stacked on the same two nodes, each truly needing
// 80 points per stage but declaring 10, with free nodes to escape to.
func arbiterHarness(t *testing.T, prioA, prioB int) (*LoopResult, error) {
	t.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatal(err)
	}
	ids := c.NodeIDs()
	build := func(name string, prio int) *topology.Topology {
		b := topology.NewBuilder(name).SetPriority(prio)
		prof := topology.ExecProfile{CPUPerTuple: 500 * time.Microsecond, TupleBytes: 128, CPUPoints: 80}
		b.SetSpout("s", 2).SetCPULoad(10).SetMemoryLoad(128).SetProfile(prof)
		b.SetBolt("w", 2).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(128).SetProfile(prof)
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	place := func(topo *topology.Topology) *core.Assignment {
		a := core.NewAssignment(topo.Name(), "manual")
		// All four tasks of each topology packed onto two nodes: 320 true
		// points per 100-point node once both tenants stack.
		a.Place(0, core.Placement{Node: ids[0], Slot: 0})
		a.Place(1, core.Placement{Node: ids[0], Slot: 1})
		a.Place(2, core.Placement{Node: ids[1], Slot: 0})
		a.Place(3, core.Placement{Node: ids[1], Slot: 1})
		return a
	}
	sim, err := simulator.New(c, simulator.Config{
		Duration:      12 * time.Second,
		MetricsWindow: time.Second,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := build("tenant-a", prioA), build("tenant-b", prioB)
	aa, ab := place(ta), place(tb)
	if err := sim.AddTopology(ta, aa); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTopology(tb, ab); err != nil {
		t.Fatal(err)
	}
	loop := NewLoop(sim, c, core.NewResourceAwareScheduler(), LoopConfig{})
	if err := loop.Manage(ta, aa); err != nil {
		t.Fatal(err)
	}
	if err := loop.Manage(tb, ab); err != nil {
		t.Fatal(err)
	}
	return loop.Run()
}

// TestArbiterServesHigherPriorityFirst: when both tenants trigger in the
// same epoch, the higher-priority tenant's rebalance is applied first —
// it escapes to the emptiest nodes while the low-priority tenant plans
// against what is left.
func TestArbiterServesHigherPriorityFirst(t *testing.T) {
	lr, err := arbiterHarness(t, 1, 7)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(lr.Events) == 0 {
		t.Fatal("no rebalances")
	}
	// Find the first epoch where both acted; tenant-b (priority 7) must
	// precede tenant-a (priority 1) in the applied order.
	firstA, firstB := -1, -1
	for i, e := range lr.Events {
		if e.Topology == "tenant-a" && firstA < 0 {
			firstA = i
		}
		if e.Topology == "tenant-b" && firstB < 0 {
			firstB = i
		}
	}
	if firstB < 0 {
		t.Fatal("high-priority tenant never rebalanced")
	}
	if firstA >= 0 && firstB > firstA {
		t.Errorf("low-priority tenant served before high-priority: events %+v", lr.Events)
	}
	for _, e := range lr.Events {
		want := map[string]int{"tenant-a": 1, "tenant-b": 7}[e.Topology]
		if e.Priority != want {
			t.Errorf("event %+v carries priority %d, want %d", e, e.Priority, want)
		}
	}
	if got := lr.Status.Topologies; len(got) > 0 {
		for _, ts := range got {
			want := map[string]int{"tenant-a": 1, "tenant-b": 7}[ts.Name]
			if ts.Priority != want {
				t.Errorf("status priority for %s = %d, want %d", ts.Name, ts.Priority, want)
			}
		}
	}
}

// TestArbiterEqualPrioritiesKeepManagedOrder: with priorities unset, the
// arbiter must behave exactly like the old per-topology loop — same
// events in the same order, managed order breaking ties.
func TestArbiterEqualPrioritiesKeepManagedOrder(t *testing.T) {
	first, err := arbiterHarness(t, 0, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	second, err := arbiterHarness(t, 0, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(first.Events) == 0 {
		t.Fatal("scenario produced no rebalances")
	}
	if len(first.Events) != len(second.Events) {
		t.Fatalf("event counts diverged: %d vs %d", len(first.Events), len(second.Events))
	}
	for i := range first.Events {
		if first.Events[i] != second.Events[i] {
			t.Errorf("event %d diverged: %+v vs %+v", i, first.Events[i], second.Events[i])
		}
	}
	// Managed order is the tie-break: tenant-a (managed first) acts first
	// within any shared epoch.
	for i := 1; i < len(first.Events); i++ {
		a, b := first.Events[i-1], first.Events[i]
		if a.At == b.At && a.Topology == "tenant-b" && b.Topology == "tenant-a" {
			t.Errorf("equal priorities broke managed order at %v", a.At)
		}
	}
}
