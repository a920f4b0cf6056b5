package nimbus

import (
	"strings"
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/topology"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	return c
}

func testTopo(t *testing.T, name string, par int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder(name)
	b.SetSpout("s", par).SetCPULoad(20).SetMemoryLoad(256)
	b.SetBolt("b", par).ShuffleGrouping("s").SetCPULoad(30).SetMemoryLoad(256)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

// startAll registers supervisors for every node.
func startAll(t *testing.T, n *Nimbus, c *cluster.Cluster) map[cluster.NodeID]*Supervisor {
	t.Helper()
	sups := make(map[cluster.NodeID]*Supervisor, c.Size())
	for _, id := range c.NodeIDs() {
		sv, err := n.StartSupervisor(id)
		if err != nil {
			t.Fatalf("StartSupervisor(%s): %v", id, err)
		}
		sups[id] = sv
	}
	return sups
}

func TestSubmitScheduleLifecycle(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)

	topo := testTopo(t, "wordcount", 4)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := n.Pending(); len(got) != 1 || got[0] != "wordcount" {
		t.Fatalf("Pending = %v", got)
	}
	scheduled := n.RunSchedulingRound()
	if len(scheduled) != 1 || scheduled[0] != "wordcount" {
		t.Fatalf("scheduled = %v", scheduled)
	}
	if len(n.Pending()) != 0 {
		t.Fatalf("still pending: %v", n.Pending())
	}
	a := n.Assignment("wordcount")
	if a == nil || !a.Complete(topo) {
		t.Fatal("assignment missing or incomplete")
	}
	// Assignment persisted in the store and decodable.
	data, err := n.Store().Get("/assignments/wordcount")
	if err != nil {
		t.Fatalf("stored assignment: %v", err)
	}
	decoded, err := DecodeAssignment(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded.Placements) != len(a.Placements) {
		t.Errorf("decoded %d placements, want %d", len(decoded.Placements), len(a.Placements))
	}

	if err := n.KillTopology("wordcount"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if n.Assignment("wordcount") != nil {
		t.Error("assignment survives kill")
	}
	if n.Store().Exists("/assignments/wordcount") {
		t.Error("stored assignment survives kill")
	}
}

func TestSchedulingWaitsForSupervisors(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topo := testTopo(t, "early", 2)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// No supervisors yet: nothing can be placed.
	if scheduled := n.RunSchedulingRound(); len(scheduled) != 0 {
		t.Fatalf("scheduled with no supervisors: %v", scheduled)
	}
	if got := n.Pending(); len(got) != 1 {
		t.Fatalf("Pending = %v", got)
	}
	startAll(t, n, c)
	if scheduled := n.RunSchedulingRound(); len(scheduled) != 1 {
		t.Fatalf("scheduled = %v after supervisors joined", scheduled)
	}
}

func TestSupervisorMembershipAndHeartbeat(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.EvenScheduler{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sv, err := n.StartSupervisor(c.NodeIDs()[0])
	if err != nil {
		t.Fatalf("StartSupervisor: %v", err)
	}
	if got := n.AliveSupervisors(); len(got) != 1 || got[0] != c.NodeIDs()[0] {
		t.Fatalf("AliveSupervisors = %v", got)
	}
	if err := sv.Heartbeat(); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if sv.ID() != c.NodeIDs()[0] {
		t.Errorf("ID = %v", sv.ID())
	}
	// Duplicate registration rejected.
	if _, err := n.StartSupervisor(c.NodeIDs()[0]); err == nil {
		t.Error("duplicate supervisor accepted")
	}
	if _, err := n.StartSupervisor("ghost"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := sv.Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if err := sv.Heartbeat(); err == nil {
		t.Error("heartbeat after failure accepted")
	}
	if err := sv.Fail(); err == nil {
		t.Error("double failure accepted")
	}
	if got := n.AliveSupervisors(); len(got) != 0 {
		t.Fatalf("AliveSupervisors after failure = %v", got)
	}
}

// TestFailureTriggersReschedule drives the detector's fallback for a
// resource-blind scheduler: Even has no incremental pass, so a node death
// tears the topology down and requeues it for a full reschedule.
func TestFailureTriggersReschedule(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.EvenScheduler{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sups := startAll(t, n, c)
	topo := testTopo(t, "resilient", 6)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := n.Tick(); len(got) != 1 {
		t.Fatalf("Tick scheduled %v", got)
	}
	before := n.Assignment("resilient")
	victim := before.NodesUsed()[0]

	if err := sups[victim].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	lost := n.HeartbeatTick()
	if len(lost) != 1 || lost[0] != victim {
		t.Fatalf("lost = %v, want [%s]", lost, victim)
	}
	if events := n.Failovers(); len(events) != 1 || !events[0].Requeued {
		t.Fatalf("failovers = %v, want one requeue", events)
	}
	if n.Assignment("resilient") != nil {
		t.Fatal("assignment survives the teardown")
	}
	// The teardown must not credit the dead node's share back to it.
	if avail := n.State().Available(victim); !avail.IsZero() {
		t.Errorf("dead node availability after failure = %v, want zero", avail)
	}
	// Topology requeued and rescheduled off the dead node.
	if got := n.Pending(); len(got) != 1 || got[0] != "resilient" {
		t.Fatalf("Pending after failure = %v", got)
	}
	if got := n.RunSchedulingRound(); len(got) != 1 {
		t.Fatalf("reschedule round = %v", got)
	}
	if avail := n.State().Available(victim); !avail.IsZero() {
		t.Errorf("dead node availability after reschedule = %v, want zero", avail)
	}
	after := n.Assignment("resilient")
	for id, p := range after.Placements {
		if p.Node == victim {
			t.Errorf("task %d still on failed node %s", id, victim)
		}
	}
}

func TestMultiTopologySchedulingSharesResources(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)
	t1 := testTopo(t, "first", 6)
	t2 := testTopo(t, "second", 6)
	if err := n.SubmitTopology(t1); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTopology(t2); err != nil {
		t.Fatal(err)
	}
	if got := n.RunSchedulingRound(); len(got) != 2 {
		t.Fatalf("scheduled = %v", got)
	}
	// Both assignments respect memory jointly: per-node total <= 2048.
	used := make(map[cluster.NodeID]float64)
	for _, name := range []string{"first", "second"} {
		topo := map[string]*topology.Topology{"first": t1, "second": t2}[name]
		for node, vec := range n.Assignment(name).UsedPerNode(topo) {
			used[node] += vec.MemoryMB
		}
	}
	for node, mem := range used {
		if mem > 2048 {
			t.Errorf("node %s total memory %v exceeds capacity", node, mem)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.EvenScheduler{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topo := testTopo(t, "dup", 1)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTopology(topo); err == nil || !strings.Contains(err.Error(), "already submitted") {
		t.Fatalf("duplicate submit err = %v", err)
	}
	if err := n.KillTopology("never"); err == nil {
		t.Error("killing unknown topology accepted")
	}
}

func TestEventsLog(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	startAll(t, n, c)
	topo := testTopo(t, "logged", 2)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatal(err)
	}
	n.RunSchedulingRound()
	events := n.Events()
	var sawJoin, sawSubmit, sawSchedule bool
	for _, e := range events {
		if strings.Contains(e, "joined") {
			sawJoin = true
		}
		if strings.Contains(e, "submitted") {
			sawSubmit = true
		}
		if strings.Contains(e, "scheduled") {
			sawSchedule = true
		}
	}
	if !sawJoin || !sawSubmit || !sawSchedule {
		t.Errorf("events missing milestones: %v", events)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	a := core.NewAssignment("t", "r-storm")
	a.Place(0, core.Placement{Node: "n1", Slot: 0})
	a.Place(7, core.Placement{Node: "n2", Slot: 3})
	data, err := EncodeAssignment(a)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeAssignment(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Topology != "t" || got.Scheduler != "r-storm" {
		t.Errorf("metadata lost: %+v", got)
	}
	if got.Placements[7] != (core.Placement{Node: "n2", Slot: 3}) {
		t.Errorf("placements lost: %+v", got.Placements)
	}
	if _, err := DecodeAssignment([]byte("{bad json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := DecodeAssignment([]byte(`{"placements":{"xx":{"node":"n","slot":0}}}`)); err == nil {
		t.Error("bad task id accepted")
	}
}
