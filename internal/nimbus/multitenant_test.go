package nimbus

import (
	"strings"
	"testing"

	"rstorm/internal/core"
	"rstorm/internal/topology"
)

// tenantTopo builds a memory-heavy topology (memory is the hard axis, so
// it is what admission and eviction bind on) at the given priority.
func tenantTopo(t *testing.T, name string, par int, memMB float64, priority int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(name).SetPriority(priority)
	b.SetSpout("s", 1).SetCPULoad(10).SetMemoryLoad(128)
	b.SetBolt("w", par).ShuffleGrouping("s").SetCPULoad(20).SetMemoryLoad(memMB)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return topo
}

func TestRunSchedulingRoundOrdersByPriority(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)
	for _, topo := range []*topology.Topology{
		tenantTopo(t, "low", 3, 600, 1),
		tenantTopo(t, "high", 3, 600, 9),
		tenantTopo(t, "mid", 3, 600, 5),
	} {
		if err := n.SubmitTopology(topo); err != nil {
			t.Fatal(err)
		}
	}
	got := n.RunSchedulingRound()
	want := []string{"high", "mid", "low"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("scheduled order = %v, want %v", got, want)
	}
	if p := n.TopologyPriority("high"); p != 9 {
		t.Errorf("TopologyPriority(high) = %d, want 9", p)
	}
}

func TestPriorityOverrideOnSubmit(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topo := tenantTopo(t, "plain", 2, 400, 3)
	if err := n.SubmitTopologyWithPriority(topo, 7); err != nil {
		t.Fatal(err)
	}
	if p := n.TopologyPriority("plain"); p != 7 {
		t.Errorf("override priority = %d, want 7", p)
	}
	if err := n.SubmitTopologyWithPriority(tenantTopo(t, "neg", 1, 100, 0), -1); err == nil {
		t.Error("negative priority accepted")
	}
}

// fillCluster submits and schedules four low-priority tenants that
// together consume ~20.6 GB of the 12-node testbed's 24 GB.
func fillCluster(t *testing.T, n *Nimbus) []string {
	t.Helper()
	names := []string{"batch-a", "batch-b", "batch-c", "batch-d"}
	for _, name := range names {
		if err := n.SubmitTopology(tenantTopo(t, name, 5, 1000, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.RunSchedulingRound(); len(got) != 4 {
		t.Fatalf("fill round scheduled %v", got)
	}
	return names
}

func TestEvictionAdmitsHighPriorityAndRequeuesVictims(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)
	fillCluster(t, n)

	// High-priority arrival needing ~7.1 GB: free memory is ~3.4 GB, so
	// victims must fall.
	if err := n.SubmitTopology(tenantTopo(t, "prod", 7, 1000, 8)); err != nil {
		t.Fatal(err)
	}
	got := n.RunSchedulingRound()
	if len(got) != 1 || got[0] != "prod" {
		t.Fatalf("round scheduled %v, want [prod]", got)
	}
	evs := n.Evictions()
	if len(evs) == 0 {
		t.Fatal("no evictions recorded")
	}
	for _, e := range evs {
		if e.For != "prod" || e.ForPriority != 8 {
			t.Errorf("eviction %+v not attributed to prod@8", e)
		}
		if n.Assignment(e.Victim) != nil {
			t.Errorf("victim %s still has an assignment", e.Victim)
		}
		if n.Store().Exists("/assignments/" + e.Victim) {
			t.Errorf("victim %s assignment still in store", e.Victim)
		}
	}
	// Victims are re-queued as pending, full topologies awaiting capacity.
	pending := n.Pending()
	if len(pending) != len(evs) {
		t.Fatalf("pending = %v, want the %d victims", pending, len(evs))
	}
	// The cluster is still full: a retry round admits nothing new and
	// must not thrash (no further evictions — victims are the lowest
	// priority around).
	if got := n.RunSchedulingRound(); len(got) != 0 {
		t.Fatalf("retry round scheduled %v on a full cluster", got)
	}
	if len(n.Evictions()) != len(evs) {
		t.Fatalf("retry round evicted more: %v", n.Evictions())
	}
}

func TestEvictedTopologyReadmittedOnCapacityRecovery(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)
	fillCluster(t, n)
	if err := n.SubmitTopology(tenantTopo(t, "prod", 7, 1000, 8)); err != nil {
		t.Fatal(err)
	}
	n.RunSchedulingRound()
	victims := n.Pending()
	if len(victims) == 0 {
		t.Fatal("no victims pending")
	}

	// Capacity recovers: a surviving batch tenant finishes. The next
	// round readmits the evicted victim in full.
	var survivor string
	for _, name := range []string{"batch-a", "batch-b", "batch-c", "batch-d"} {
		if n.Assignment(name) != nil {
			survivor = name
			break
		}
	}
	if survivor == "" {
		t.Fatal("no surviving batch tenant")
	}
	if err := n.KillTopology(survivor); err != nil {
		t.Fatalf("Kill(%s): %v", survivor, err)
	}
	got := n.RunSchedulingRound()
	if len(got) == 0 {
		t.Fatalf("no victim readmitted after capacity recovery; pending %v", n.Pending())
	}
	readmitted := got[0]
	if readmitted != victims[0] {
		t.Errorf("readmitted %s, want first-queued victim %s", readmitted, victims[0])
	}
	a := n.Assignment(readmitted)
	if a == nil {
		t.Fatalf("%s has no assignment after readmission", readmitted)
	}
	topo := tenantTopo(t, readmitted, 5, 1000, 0)
	if !a.Complete(topo) {
		t.Errorf("%s readmitted with a partial assignment", readmitted)
	}
}

func TestStatServerServesPriorityAndEvictions(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)
	fillCluster(t, n)
	if err := n.SubmitTopology(tenantTopo(t, "prod", 7, 1000, 8)); err != nil {
		t.Fatal(err)
	}
	n.RunSchedulingRound()

	// Summary: per-topology priority plus the eviction history.
	sum := n.Summary()
	var prodSeen bool
	for _, ts := range sum.Topologies {
		if ts.Name == "prod" {
			prodSeen = true
			if ts.Priority != 8 {
				t.Errorf("summary priority for prod = %d, want 8", ts.Priority)
			}
		}
	}
	if !prodSeen {
		t.Error("prod missing from summary")
	}
	if len(sum.Evictions) == 0 {
		t.Error("summary carries no eviction history")
	}

	// Evictions: every entry is attributed to the admitted tenant.
	evs := n.Evictions()
	if len(evs) != len(sum.Evictions) {
		t.Errorf("Evictions returned %d events, the summary %d", len(evs), len(sum.Evictions))
	}
	for _, e := range evs {
		if e.For != "prod" {
			t.Errorf("eviction %+v not attributed to prod", e)
		}
	}
}

// TestRoundLogsInterleaveInConsiderationOrder pins Events() parity with
// the FIFO round the cluster pass replaced: with every priority zero, a
// round over [fits, infeasible, fits] logs scheduled/failed lines in
// submission order, not grouped by outcome.
func TestRoundLogsInterleaveInConsiderationOrder(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)
	for _, topo := range []*topology.Topology{
		tenantTopo(t, "first", 2, 400, 0),
		tenantTopo(t, "huge", 1, 3000, 0), // no node can ever host it
		tenantTopo(t, "last", 2, 400, 0),
	} {
		if err := n.SubmitTopology(topo); err != nil {
			t.Fatal(err)
		}
	}
	n.RunSchedulingRound()
	var outcomes []string
	for _, e := range n.Events() {
		if strings.Contains(e, `scheduled "first"`) || strings.Contains(e, `scheduling "huge" failed`) ||
			strings.Contains(e, `scheduled "last"`) {
			outcomes = append(outcomes, e)
		}
	}
	if len(outcomes) != 3 {
		t.Fatalf("outcome lines = %v", outcomes)
	}
	if !strings.Contains(outcomes[0], `"first"`) || !strings.Contains(outcomes[1], `"huge"`) ||
		!strings.Contains(outcomes[2], `"last"`) {
		t.Errorf("outcome lines out of submission order: %v", outcomes)
	}
}
