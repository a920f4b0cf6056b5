package nimbus

import (
	"strings"
	"testing"

	"rstorm/internal/core"
)

func TestRebalance(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatal(err)
	}
	// Start only half the supervisors: the topology packs onto rack-0.
	for _, id := range c.NodeIDs()[:6] {
		if _, err := n.StartSupervisor(id); err != nil {
			t.Fatal(err)
		}
	}
	topo := testTopo(t, "growing", 6)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatal(err)
	}
	if got := n.RunSchedulingRound(); len(got) != 1 {
		t.Fatalf("scheduled %v", got)
	}
	before := n.Assignment("growing")

	// The other rack joins; rebalance reschedules with the new capacity.
	for _, id := range c.NodeIDs()[6:] {
		if _, err := n.StartSupervisor(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.RebalanceTopology("growing"); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if n.Assignment("growing") != nil {
		t.Error("assignment should be torn down until the next round")
	}
	if events := n.Events(); !strings.Contains(events[len(events)-1], `rebalance requested for "growing"`) {
		t.Errorf("events missing rebalance: %v", events)
	}
	if got := n.RunSchedulingRound(); len(got) != 1 {
		t.Fatalf("reschedule round = %v", got)
	}
	after := n.Assignment("growing")
	if after == nil || after == before {
		t.Fatal("no fresh assignment after rebalance")
	}
	if err := n.RebalanceTopology("ghost"); err == nil {
		t.Error("rebalancing unknown topology accepted")
	}
}

func TestSummary(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatal(err)
	}
	startAll(t, n, c)
	if err := n.SubmitTopology(testTopo(t, "served", 4)); err != nil {
		t.Fatal(err)
	}
	if got := n.RunSchedulingRound(); len(got) != 1 {
		t.Fatalf("scheduled %v", got)
	}
	summary := n.Summary()
	if summary.AliveSupervisors != 12 {
		t.Errorf("supervisors = %d", summary.AliveSupervisors)
	}
	if len(summary.Topologies) != 1 || summary.Topologies[0].Name != "served" {
		t.Fatalf("topologies = %+v", summary.Topologies)
	}
	if summary.Topologies[0].Tasks != 8 {
		t.Errorf("tasks = %d", summary.Topologies[0].Tasks)
	}
	if len(summary.NodeAvailable) != 12 {
		t.Errorf("nodes = %d", len(summary.NodeAvailable))
	}
}
