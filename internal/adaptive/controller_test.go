package adaptive

import (
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/simulator"
)

func hotWindow() []simulator.TaskSample {
	return []simulator.TaskSample{
		sample("t", "work", 0, "n0", 1.0, 2),
		sample("t", "s", 1, "n1", 0.2, 1),
	}
}

func coldWindow() []simulator.TaskSample {
	return []simulator.TaskSample{
		sample("t", "work", 0, "n0", 0.05, 1),
		sample("t", "s", 1, "n1", 0.05, 1),
	}
}

func newTestController() *Controller {
	return NewController(nil, nil, ControllerConfig{})
}

func TestHotspotRequiresHysteresis(t *testing.T) {
	c := newTestController()
	c.OnWindow(hotWindow())
	if _, ok := c.ShouldRebalance("t"); ok {
		t.Error("rebalance after one hot window (hysteresis 2)")
	}
	c.OnWindow(hotWindow())
	trigger, ok := c.ShouldRebalance("t")
	if !ok || trigger != TriggerHotspot {
		t.Fatalf("ShouldRebalance = %q, %v; want hotspot", trigger, ok)
	}
}

func TestCooldownSilencesController(t *testing.T) {
	c := newTestController()
	c.OnWindow(hotWindow())
	c.OnWindow(hotWindow())
	c.NotifyRebalanced("t", 3, TriggerHotspot)
	// Still hot, but the cooldown must hold for 3 windows.
	for i := 0; i < 3; i++ {
		c.OnWindow(hotWindow())
		if _, ok := c.ShouldRebalance("t"); ok {
			t.Fatalf("rebalance during cooldown window %d", i)
		}
	}
	// Cooldown over; the streak rebuilt during it satisfies hysteresis.
	c.OnWindow(hotWindow())
	if _, ok := c.ShouldRebalance("t"); !ok {
		t.Error("no rebalance after cooldown expired")
	}
}

func TestImbalanceDetection(t *testing.T) {
	c := newTestController()
	c.OnWindow(coldWindow())
	c.OnWindow(coldWindow())
	trigger, ok := c.ShouldRebalance("t")
	if !ok || trigger != TriggerImbalance {
		t.Fatalf("ShouldRebalance = %q, %v; want imbalance", trigger, ok)
	}
	// A hot component breaks the cold streak.
	c.OnWindow(hotWindow())
	if trigger, _ := c.ShouldRebalance("t"); trigger == TriggerImbalance {
		t.Error("imbalance still reported after a hot window")
	}
}

func TestStatusSnapshot(t *testing.T) {
	c := newTestController()
	c.OnWindow(hotWindow())
	c.OnWindow(hotWindow())
	c.NotifyRebalanced("t", 4, TriggerHotspot)
	st := c.Status()
	if st.Windows != 2 {
		t.Errorf("Windows = %d", st.Windows)
	}
	if len(st.Topologies) != 1 {
		t.Fatalf("Topologies = %+v", st.Topologies)
	}
	ts := st.Topologies[0]
	if ts.Name != "t" || ts.Rebalances != 1 || ts.TotalMoves != 4 || ts.Cooldown != 3 {
		t.Errorf("status = %+v", ts)
	}
	if len(ts.Components) != 2 {
		t.Errorf("components = %+v", ts.Components)
	}
	if ts.LastAction == "" {
		t.Error("LastAction empty")
	}
}

// TestStatusMemoryAndTraffic: the status snapshot carries the runtime
// memory model's measurements and thresholds and the measured traffic
// state.
func TestStatusMemoryAndTraffic(t *testing.T) {
	ctrl := newTestController()
	ctrl.OnWindow([]simulator.TaskSample{{
		Topology: "served", Component: "s", Node: cluster.NodeID("n0"),
		WindowEnd: 1e9, Slowdown: 1, NodeCPUCapacity: 100,
		ResidentMemMB: 1900, NodeMemCapacityMB: 2048,
		Edges: []simulator.EdgeRate{
			{DestTaskID: 1, DestComponent: "z", Tuples: 600, Remote: true},
			{DestTaskID: 2, DestComponent: "z", Tuples: 400},
		},
	}})
	status := ctrl.Status()
	if status.Windows != 1 || len(status.Topologies) != 1 {
		t.Fatalf("status = %+v", status)
	}
	if status.Topologies[0].Name != "served" {
		t.Errorf("topology = %+v", status.Topologies[0])
	}
	if status.MemHigh <= 0 {
		t.Errorf("memHigh = %v, want the controller default surfaced", status.MemHigh)
	}
	comps := status.Topologies[0].Components
	if len(comps) != 1 || comps[0].MemResidentMB != 1900 {
		t.Errorf("measured memory not reported: %+v", comps)
	}
	// 1900/2048 is past the default MemHigh: the streak must be visible.
	if status.Topologies[0].MemStreak != 1 {
		t.Errorf("memStreak = %d, want 1", status.Topologies[0].MemStreak)
	}
	// The measured traffic state: the component-pair edge rate (both task
	// edges fold into one s->z pair) and the inter-node fraction of the
	// counted deliveries.
	traffic := status.Topologies[0].Traffic
	if len(traffic) != 1 || traffic[0].From != "s" || traffic[0].To != "z" {
		t.Fatalf("traffic = %+v, want one s->z edge", traffic)
	}
	if traffic[0].RatePerSec != 1000 || traffic[0].Tuples != 1000 || traffic[0].RemoteTuples != 600 {
		t.Errorf("traffic edge = %+v, want 1000/s, 1000 tuples, 600 remote", traffic[0])
	}
	if got := status.Topologies[0].InterNodeFraction; got != 0.6 {
		t.Errorf("interNodeFraction = %v, want 0.6", got)
	}
}

// TestMemoryTriggerFiresOnFillingNode: a node whose summed residents pass
// MemHigh must build a memory streak for every topology hosted there and
// fire the memory trigger after the hysteresis, with no contention gate.
func TestMemoryTriggerFiresOnFillingNode(t *testing.T) {
	ctrl := NewController(nil, nil, ControllerConfig{MemHigh: 0.8})
	hot := func(residentMB float64) []simulator.TaskSample {
		s1 := sample("t", "cache", 0, "n0", 0.2, 1)
		s1.ResidentMemMB, s1.NodeMemCapacityMB = residentMB, 2048
		s2 := sample("t", "cache", 1, "n0", 0.2, 1)
		s2.ResidentMemMB, s2.NodeMemCapacityMB = residentMB, 2048
		return []simulator.TaskSample{s1, s2}
	}
	// 2 x 700 = 1400 < 0.8 * 2048: below the line, no streak.
	ctrl.OnWindow(hot(700))
	if trigger, ok := ctrl.ShouldRebalance("t"); ok {
		t.Fatalf("below MemHigh triggered %q", trigger)
	}
	// 2 x 900 = 1800 >= 1638: two windows of pressure satisfy hysteresis.
	ctrl.OnWindow(hot(900))
	if _, ok := ctrl.ShouldRebalance("t"); ok {
		t.Fatal("one hot window must not satisfy hysteresis 2")
	}
	ctrl.OnWindow(hot(900))
	trigger, ok := ctrl.ShouldRebalance("t")
	if !ok || trigger != TriggerMemory {
		t.Fatalf("trigger = %q, %v; want memory trigger", trigger, ok)
	}
	// The rebalance resets the streak and starts the cooldown.
	ctrl.NotifyRebalanced("t", 1, trigger)
	if _, ok := ctrl.ShouldRebalance("t"); ok {
		t.Error("cooldown ignored after memory rebalance")
	}
	if st := ctrl.Status(); st.Topologies[0].MemStreak != 0 {
		t.Errorf("memStreak = %d after rebalance, want 0", st.Topologies[0].MemStreak)
	}
}

// TestMemoryTriggerInertWithoutModel: memory-blind samples (zero capacity)
// must never produce a memory streak, whatever the fill thresholds.
func TestMemoryTriggerInertWithoutModel(t *testing.T) {
	ctrl := NewController(nil, nil, ControllerConfig{MemHigh: 0.01})
	for i := 0; i < 3; i++ {
		ctrl.OnWindow([]simulator.TaskSample{sample("t", "cache", 0, "n0", 0.3, 1)})
	}
	if trigger, ok := ctrl.ShouldRebalance("t"); ok && trigger == TriggerMemory {
		t.Error("memory trigger fired without the runtime memory model")
	}
}

// TestPartialWindowsDoNotAdvanceDecisionClocks: a mid-window partial
// flush folds into the profiler but must not count toward hysteresis or
// consume cooldown — a 250ms slice is not a window of evidence.
func TestPartialWindowsDoNotAdvanceDecisionClocks(t *testing.T) {
	ctrl := NewController(nil, nil, ControllerConfig{MemHigh: 0.5})
	full := func() []simulator.TaskSample {
		s := sample("t", "cache", 0, "n0", 0.2, 1)
		s.ResidentMemMB, s.NodeMemCapacityMB = 1500, 2048
		return []simulator.TaskSample{s}
	}
	partial := func() []simulator.TaskSample {
		ss := full()
		ss[0].WindowStart = time.Second
		ss[0].WindowEnd = 1250 * time.Millisecond
		return ss
	}
	ctrl.OnWindow(full()) // memStreak 1
	// Two hot partial slices must not complete the hysteresis...
	ctrl.OnWindow(partial())
	ctrl.OnWindow(partial())
	if trigger, ok := ctrl.ShouldRebalance("t"); ok {
		t.Fatalf("partial windows satisfied hysteresis: %q", trigger)
	}
	// ...but the next full window does.
	ctrl.OnWindow(full())
	if trigger, ok := ctrl.ShouldRebalance("t"); !ok || trigger != TriggerMemory {
		t.Fatalf("trigger = %q, %v after two full hot windows", trigger, ok)
	}
}
