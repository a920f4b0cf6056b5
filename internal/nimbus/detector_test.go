package nimbus

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
)

// beatExcept heartbeats every supervisor except the listed victims.
func beatExcept(t *testing.T, sups map[cluster.NodeID]*Supervisor, victims ...cluster.NodeID) {
	t.Helper()
	skip := make(map[cluster.NodeID]bool, len(victims))
	for _, v := range victims {
		skip[v] = true
	}
	for id, sv := range sups {
		if skip[id] {
			continue
		}
		if err := sv.Heartbeat(); err != nil {
			t.Fatalf("Heartbeat(%s): %v", id, err)
		}
	}
}

// victimNode picks a node hosting tasks of the named topology.
func victimNode(t *testing.T, n *Nimbus, name string) cluster.NodeID {
	t.Helper()
	a := n.Assignment(name)
	if a == nil {
		t.Fatalf("no assignment for %q", name)
	}
	used := a.NodesUsed()
	if len(used) == 0 {
		t.Fatalf("assignment for %q uses no nodes", name)
	}
	return used[0]
}

func nodeState(t *testing.T, n *Nimbus, id cluster.NodeID) NodeHealthStatus {
	t.Helper()
	for _, ns := range n.DetectorStatus().Nodes {
		if ns.Node == string(id) {
			return ns
		}
	}
	t.Fatalf("node %s not tracked by detector", id)
	return NodeHealthStatus{}
}

func TestDetectorSuspectThenDead(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.EnableFailureDetector(DetectorConfig{SuspectAfter: 2, DeadAfter: 3})
	sups := startAll(t, n, c)
	topo := testTopo(t, "wordcount", 4)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	n.RunSchedulingRound()
	before := n.Assignment("wordcount")
	victim := victimNode(t, n, "wordcount")

	n.HeartbeatTick() // first sight: every node tracked healthy
	if got := nodeState(t, n, victim).State; got != "healthy" {
		t.Fatalf("victim state = %s, want healthy", got)
	}

	// The victim's heartbeat wedges while its session stays alive; everyone
	// else keeps beating.
	beatExcept(t, sups, victim)
	if dead := n.HeartbeatTick(); len(dead) != 0 {
		t.Fatalf("dead after 1 missed beat: %v", dead)
	}
	if got := nodeState(t, n, victim).State; got != "healthy" {
		t.Fatalf("after 1 miss: state = %s, want healthy", got)
	}
	beatExcept(t, sups, victim)
	if dead := n.HeartbeatTick(); len(dead) != 0 {
		t.Fatalf("dead after 2 missed beats: %v", dead)
	}
	if got := nodeState(t, n, victim).State; got != "suspect" {
		t.Fatalf("after 2 misses: state = %s, want suspect", got)
	}
	// Suspicion is advisory: nothing moved yet.
	if len(n.Failovers()) != 0 {
		t.Fatalf("failovers while merely suspect: %v", n.Failovers())
	}

	beatExcept(t, sups, victim)
	dead := n.HeartbeatTick()
	if len(dead) != 1 || dead[0] != victim {
		t.Fatalf("dead after 3 missed beats = %v, want [%s]", dead, victim)
	}
	if got := nodeState(t, n, victim).State; got != "dead" {
		t.Fatalf("state = %s, want dead", got)
	}

	// The failover re-placed only the victim's tasks.
	events := n.Failovers()
	if len(events) != 1 {
		t.Fatalf("failover events = %v, want 1", events)
	}
	ev := events[0]
	if ev.Node != string(victim) || ev.Topology != "wordcount" || ev.Requeued {
		t.Fatalf("unexpected event %+v", ev)
	}
	after := n.Assignment("wordcount")
	if after == nil || !after.Complete(topo) {
		t.Fatal("assignment missing or incomplete after failover")
	}
	restarted := 0
	for _, task := range topo.Tasks() {
		was, now := before.Placements[task.ID], after.Placements[task.ID]
		if now.Node == victim {
			t.Fatalf("task %d still on dead node %s", task.ID, victim)
		}
		if was.Node == victim {
			restarted++
		} else if now != was {
			t.Fatalf("survivor task %d moved %v -> %v", task.ID, was, now)
		}
	}
	if restarted == 0 {
		t.Fatal("victim hosted no tasks; test is vacuous")
	}
	if ev.Moves < restarted {
		t.Fatalf("event moves = %d, want >= %d", ev.Moves, restarted)
	}
	// Dead capacity stays off the books for future rounds.
	if avail := n.State().AvailableAll()[victim]; avail != (resource.Vector{}) {
		t.Fatalf("dead node still has availability %+v", avail)
	}
	// Later ticks do not re-fire the failover.
	beatExcept(t, sups, victim)
	if dead := n.HeartbeatTick(); len(dead) != 0 {
		t.Fatalf("re-declared dead: %v", dead)
	}
	if len(n.Failovers()) != 1 {
		t.Fatalf("failover fired twice: %v", n.Failovers())
	}
}

func TestHeartbeatLossFailover(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.EnableFailureDetector(DetectorConfig{})
	sups := startAll(t, n, c)
	topo := testTopo(t, "wordcount", 4)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	n.RunSchedulingRound()
	victim := victimNode(t, n, "wordcount")

	n.HeartbeatTick()
	// Session expiry: the supervisor's ephemeral presence vanishes. Death
	// is immediate — no missed-beat patience.
	if err := sups[victim].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	dead := n.HeartbeatTick()
	if len(dead) != 1 || dead[0] != victim {
		t.Fatalf("dead = %v, want [%s]", dead, victim)
	}
	events := n.Failovers()
	if len(events) != 1 || events[0].Requeued {
		t.Fatalf("failovers = %v, want one incremental repair", events)
	}
	// The repaired assignment reached the coordination store.
	data, err := n.Store().Get(assignmentsPath + "/wordcount")
	if err != nil {
		t.Fatalf("stored assignment: %v", err)
	}
	stored, err := DecodeAssignment(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, task := range topo.Tasks() {
		if stored.Placements[task.ID].Node == victim {
			t.Fatalf("stored assignment leaves task %d on dead node", task.ID)
		}
	}
	// Legacy DetectFailures sees nothing left to do: the detector already
	// owned the death.
	if lost := n.DetectFailures(); len(lost) != 0 {
		t.Fatalf("DetectFailures double-handled: %v", lost)
	}
	if got := n.Assignment("wordcount"); got == nil {
		t.Fatal("DetectFailures tore down the repaired assignment")
	}
}

func TestFlapDampingHoldsRejoinedNode(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const hold = 3
	n.EnableFailureDetector(DetectorConfig{FlapDamping: hold})
	sups := startAll(t, n, c)
	topo := testTopo(t, "wordcount", 4)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	n.RunSchedulingRound()
	victim := victimNode(t, n, "wordcount")

	n.HeartbeatTick()
	if err := sups[victim].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	n.HeartbeatTick()
	if got := nodeState(t, n, victim).State; got != "dead" {
		t.Fatalf("state = %s, want dead", got)
	}

	// The node rejoins, but its history makes it untrustworthy: it is held
	// down with zero capacity until it proves itself.
	sv, err := n.StartSupervisor(victim)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	sups[victim] = sv
	if got := nodeState(t, n, victim).State; got != "recovering" {
		t.Fatalf("after rejoin: state = %s, want recovering", got)
	}
	if avail := n.State().AvailableAll()[victim]; avail != (resource.Vector{}) {
		t.Fatalf("held-down node has availability %+v", avail)
	}
	// New work must not land on it while held down.
	extra := testTopo(t, "extra", 2)
	if err := n.SubmitTopology(extra); err != nil {
		t.Fatalf("Submit extra: %v", err)
	}
	n.RunSchedulingRound()
	if a := n.Assignment("extra"); a != nil {
		for _, task := range extra.Tasks() {
			if a.Placements[task.ID].Node == victim {
				t.Fatalf("task placed on held-down node %s", victim)
			}
		}
	}

	// hold fresh beats re-earn trust. The registration payload itself
	// counts as the first.
	for i := 0; i < hold; i++ {
		if got := nodeState(t, n, victim).State; got != "recovering" {
			t.Fatalf("beat %d: state = %s, want recovering", i, got)
		}
		if i > 0 {
			if err := sv.Heartbeat(); err != nil {
				t.Fatalf("Heartbeat: %v", err)
			}
		}
		beatExcept(t, sups, victim)
		if dead := n.HeartbeatTick(); len(dead) != 0 {
			t.Fatalf("beat %d: died during recovery: %v", i, dead)
		}
	}
	if got := nodeState(t, n, victim).State; got != "healthy" {
		t.Fatalf("after %d fresh beats: state = %s, want healthy", hold, got)
	}
	want := c.Node(victim).Spec.Capacity
	if avail := n.State().AvailableAll()[victim]; avail != want {
		t.Fatalf("restored availability = %+v, want %+v", avail, want)
	}
}

func TestRecoveryStallReturnsNodeToDead(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.EnableFailureDetector(DetectorConfig{FlapDamping: 5})
	sups := startAll(t, n, c)
	topo := testTopo(t, "wordcount", 4)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	n.RunSchedulingRound()
	victim := victimNode(t, n, "wordcount")

	n.HeartbeatTick()
	if err := sups[victim].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	n.HeartbeatTick()
	sv, err := n.StartSupervisor(victim)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	beatExcept(t, sups, victim)
	n.HeartbeatTick() // registration seq counts: recovering, 1 fresh beat
	if err := sv.Heartbeat(); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	beatExcept(t, sups, victim)
	n.HeartbeatTick()
	if got := nodeState(t, n, victim); got.State != "recovering" || got.Healthy != 2 {
		t.Fatalf("mid-recovery: %+v", got)
	}
	// It wedges again mid-recovery: straight back to dead, progress
	// forfeited, and no second failover (its tasks already moved).
	beatExcept(t, sups, victim)
	if dead := n.HeartbeatTick(); len(dead) != 0 {
		t.Fatalf("re-death of drained node fired failover: %v", dead)
	}
	got := nodeState(t, n, victim)
	if got.State != "dead" || got.Healthy != 0 {
		t.Fatalf("after stall: %+v, want dead with progress forfeited", got)
	}
	if len(n.Failovers()) != 1 {
		t.Fatalf("failovers = %v, want exactly the original one", n.Failovers())
	}
}

func TestFailoverRequeuesWhenNoCapacity(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.EnableFailureDetector(DetectorConfig{})
	// Only two supervisors join: the topology must straddle both, and when
	// one dies the survivor cannot absorb its share.
	ids := c.NodeIDs()
	sups := make(map[cluster.NodeID]*Supervisor, 2)
	for _, id := range ids[:2] {
		sv, err := n.StartSupervisor(id)
		if err != nil {
			t.Fatalf("StartSupervisor(%s): %v", id, err)
		}
		sups[id] = sv
	}
	// Memory is the hard constraint (CPU is soft in R-Storm): 6 tasks of
	// 512 MB need 3072 MB, so the topology must straddle both 2048 MB
	// nodes, and no single survivor can absorb the other's share.
	bt := topology.NewBuilder("wordcount")
	bt.SetSpout("s", 3).SetCPULoad(20).SetMemoryLoad(512)
	bt.SetBolt("b", 3).ShuffleGrouping("s").SetCPULoad(30).SetMemoryLoad(512)
	topo, err := bt.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got := n.RunSchedulingRound(); len(got) != 1 {
		t.Fatalf("initial schedule failed: %v", got)
	}
	victim := victimNode(t, n, "wordcount")

	n.HeartbeatTick()
	if err := sups[victim].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	dead := n.HeartbeatTick()
	if len(dead) != 1 || dead[0] != victim {
		t.Fatalf("dead = %v, want [%s]", dead, victim)
	}
	events := n.Failovers()
	if len(events) != 1 || !events[0].Requeued {
		t.Fatalf("failovers = %v, want one requeue fallback", events)
	}
	if n.Assignment("wordcount") != nil {
		t.Fatal("infeasible topology kept a partial assignment")
	}
	if n.Store().Exists(assignmentsPath + "/wordcount") {
		t.Fatal("stale assignment left in store")
	}
	if got := n.Pending(); len(got) != 1 || got[0] != "wordcount" {
		t.Fatalf("pending = %v, want [wordcount]", got)
	}
	// Capacity returns: the pending topology schedules in full again.
	for _, id := range ids[2:4] {
		if _, err := n.StartSupervisor(id); err != nil {
			t.Fatalf("StartSupervisor(%s): %v", id, err)
		}
	}
	if got := n.RunSchedulingRound(); len(got) != 1 || got[0] != "wordcount" {
		t.Fatalf("reschedule = %v", got)
	}
	a := n.Assignment("wordcount")
	for _, task := range topo.Tasks() {
		if a.Placements[task.ID].Node == victim {
			t.Fatalf("rescheduled task %d on dead node", task.ID)
		}
	}
}

func TestFaultsRouteServesDetectorStatus(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := NewStatisticServer(n)

	// Disabled detector: the route 404s, like /adaptive when unattached.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/faults", nil))
	if rec.Code != 404 {
		t.Fatalf("/faults with detector off = %d, want 404", rec.Code)
	}

	n.EnableFailureDetector(DetectorConfig{})
	sups := startAll(t, n, c)
	topo := testTopo(t, "wordcount", 4)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	n.RunSchedulingRound()
	victim := victimNode(t, n, "wordcount")
	n.HeartbeatTick()
	if err := sups[victim].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	n.HeartbeatTick()

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/faults", nil))
	if rec.Code != 200 {
		t.Fatalf("/faults = %d, want 200", rec.Code)
	}
	var status DetectorStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("decode /faults: %v", err)
	}
	if !status.Enabled || status.SuspectAfter != 2 || status.DeadAfter != 4 || status.FlapDamping != 3 {
		t.Fatalf("status = %+v, want defaults reported", status)
	}
	if len(status.Events) != 1 || status.Events[0].Node != string(victim) {
		t.Fatalf("events = %+v", status.Events)
	}
	var deadReported bool
	for _, ns := range status.Nodes {
		if ns.Node == string(victim) && ns.State == "dead" {
			deadReported = true
		}
	}
	if !deadReported {
		t.Fatalf("victim not reported dead: %+v", status.Nodes)
	}
}

// TestDetectorConcurrentAccess exercises the detector under -race:
// heartbeat ticks, supervisor beats, status snapshots, and summaries all
// run at once.
func TestDetectorConcurrentAccess(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.EnableFailureDetector(DetectorConfig{})
	sups := startAll(t, n, c)
	topo := testTopo(t, "wordcount", 4)
	if err := n.SubmitTopology(topo); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	n.RunSchedulingRound()

	const iters = 50
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			n.HeartbeatTick()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			for _, sv := range sups {
				_ = sv.Heartbeat()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = n.DetectorStatus()
			_ = n.Failovers()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = n.Summary()
		}
	}()
	wg.Wait()
}

// BenchmarkFailoverRound measures one detector tick that declares a node
// dead and incrementally re-places its tasks.
func BenchmarkFailoverRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := cluster.Emulab12()
		if err != nil {
			b.Fatalf("Emulab12: %v", err)
		}
		n, err := New(c, core.NewResourceAwareScheduler())
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		n.EnableFailureDetector(DetectorConfig{})
		sups := make(map[cluster.NodeID]*Supervisor)
		for _, id := range c.NodeIDs() {
			sv, err := n.StartSupervisor(id)
			if err != nil {
				b.Fatalf("StartSupervisor: %v", err)
			}
			sups[id] = sv
		}
		bt := topology.NewBuilder("bench")
		bt.SetSpout("s", 4).SetCPULoad(20).SetMemoryLoad(256)
		bt.SetBolt("b", 4).ShuffleGrouping("s").SetCPULoad(30).SetMemoryLoad(256)
		topo, err := bt.Build()
		if err != nil {
			b.Fatalf("Build: %v", err)
		}
		if err := n.SubmitTopology(topo); err != nil {
			b.Fatalf("Submit: %v", err)
		}
		n.RunSchedulingRound()
		n.HeartbeatTick()
		victim := n.Assignment("bench").NodesUsed()[0]
		if err := sups[victim].Fail(); err != nil {
			b.Fatalf("Fail: %v", err)
		}
		b.StartTimer()
		if dead := n.HeartbeatTick(); len(dead) != 1 {
			b.Fatalf("dead = %v", dead)
		}
	}
}

// startDetector registers a supervisor on every node of c, in declaration
// order, with the failure detector on, and runs the first tick.
func startDetector(tb testing.TB, c *cluster.Cluster) (*Nimbus, []*Supervisor) {
	tb.Helper()
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	n.EnableFailureDetector(DetectorConfig{})
	svs := make([]*Supervisor, 0, c.Size())
	for _, id := range c.NodeIDs() {
		sv, err := n.StartSupervisor(id)
		if err != nil {
			tb.Fatalf("StartSupervisor(%s): %v", id, err)
		}
		svs = append(svs, sv)
	}
	n.HeartbeatTick()
	return n, svs
}

// detectorCycle is one heartbeat period on a healthy cluster: every
// supervisor beats, then the detector ticks.
func detectorCycle(tb testing.TB, n *Nimbus, svs []*Supervisor) {
	for _, sv := range svs {
		if err := sv.Heartbeat(); err != nil {
			tb.Fatalf("Heartbeat(%s): %v", sv.ID(), err)
		}
	}
	if dead := n.HeartbeatTick(); len(dead) > 0 {
		tb.Fatalf("healthy cluster declared %v dead", dead)
	}
}

// TestHeartbeatAllocs pins the heartbeat path's allocation profile once
// warm: a Supervisor.Heartbeat allocates nothing, and a detector cycle
// allocates as many times on 12 nodes as on 256, so nothing is allocated
// per supervisor. The tick's two are the ChildVersions listing and the
// presence slice.
func TestHeartbeatAllocs(t *testing.T) {
	large, err := cluster.TwoRack(8, 32, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(c *cluster.Cluster) (cycle, beat float64) {
		n, svs := startDetector(t, c)
		for i := 0; i < 10; i++ {
			detectorCycle(t, n, svs)
		}
		cycle = testing.AllocsPerRun(50, func() { detectorCycle(t, n, svs) })
		beat = testing.AllocsPerRun(100, func() {
			if err := svs[0].Heartbeat(); err != nil {
				t.Fatal(err)
			}
		})
		return cycle, beat
	}
	smallCycle, smallBeat := allocs(testCluster(t))
	largeCycle, largeBeat := allocs(large)
	if smallCycle != largeCycle || largeCycle > 2 {
		t.Errorf("a detector cycle allocates %v times on Emulab12 and %v on TwoRack(8,32), want the same, at most 2",
			smallCycle, largeCycle)
	}
	if smallBeat != 0 || largeBeat != 0 {
		t.Errorf("Heartbeat allocates %v times on Emulab12 and %v on TwoRack(8,32), want 0", smallBeat, largeBeat)
	}
}

// BenchmarkHeartbeatTick measures one heartbeat period on 256 healthy
// supervisors: every supervisor beats, then one HeartbeatTick.
func BenchmarkHeartbeatTick(b *testing.B) {
	c, err := cluster.TwoRack(8, 32, cluster.EmulabNodeSpec())
	if err != nil {
		b.Fatal(err)
	}
	n, svs := startDetector(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detectorCycle(b, n, svs)
	}
}
