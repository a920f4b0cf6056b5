package adaptive

import (
	"math"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// sample builds a TaskSample over a 1s window.
func sample(topo, comp string, id int, node cluster.NodeID, busyFrac, slowdown float64) simulator.TaskSample {
	const window = time.Second
	return simulator.TaskSample{
		Topology:        topo,
		Component:       comp,
		TaskID:          id,
		Node:            node,
		WindowStart:     0,
		WindowEnd:       window,
		FullWindow:      window,
		Busy:            time.Duration(busyFrac * float64(window)),
		Slowdown:        slowdown,
		NodeCPUCapacity: 100,
		QueueCap:        128,
	}
}

// TestSaturatedAttributionRecoversTruePoints: on an overcommitted node the
// stretch factor pins the node's aggregate true demand at f*C, so equal
// shares must come out exact: 4 fully-busy tasks under f=3.2 on 100 points
// truly need 80 points each.
func TestSaturatedAttributionRecoversTruePoints(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	var samples []simulator.TaskSample
	for i := 0; i < 4; i++ {
		samples = append(samples, sample("t", "work", i, "n0", 1.0, 3.2))
	}
	p.OnWindow(samples)
	stats := p.Stats("t")
	if len(stats) != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := stats[0].CPUPoints; math.Abs(got-80) > 1e-9 {
		t.Errorf("CPUPoints = %v, want 80", got)
	}
	if got := stats[0].Utilization; math.Abs(got-1) > 1e-9 {
		t.Errorf("Utilization = %v, want 1", got)
	}
}

// TestUnsaturatedEstimateIsThreadFraction: with no contention the busy
// fraction of one executor bounds its demand.
func TestUnsaturatedEstimateIsThreadFraction(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	p.OnWindow([]simulator.TaskSample{
		sample("t", "light", 0, "n0", 0.3, 1),
		sample("t", "light", 1, "n1", 0.1, 1),
	})
	stats := p.Stats("t")
	if got := stats[0].CPUPoints; math.Abs(got-20) > 1e-9 { // mean of 30 and 10
		t.Errorf("CPUPoints = %v, want 20", got)
	}
}

func TestEWMASmoothsWindows(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	p.OnWindow([]simulator.TaskSample{sample("t", "c", 0, "n0", 0.8, 1)})
	p.OnWindow([]simulator.TaskSample{sample("t", "c", 0, "n0", 0.4, 1)})
	stats := p.Stats("t")
	// First window seeds (80), second folds: 0.5*40 + 0.5*80 = 60.
	if got := stats[0].CPUPoints; math.Abs(got-60) > 1e-9 {
		t.Errorf("CPUPoints = %v, want 60", got)
	}
	if p.Windows() != 2 {
		t.Errorf("Windows = %d", p.Windows())
	}
}

func TestDeadTasksExcluded(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	dead := sample("t", "c", 1, "n0", 0.9, 1)
	dead.Dead = true
	p.OnWindow([]simulator.TaskSample{
		sample("t", "c", 0, "n0", 0.5, 1),
		dead,
	})
	stats := p.Stats("t")
	if stats[0].Tasks != 1 {
		t.Errorf("live tasks = %d, want 1", stats[0].Tasks)
	}
	if got := stats[0].CPUPoints; math.Abs(got-50) > 1e-9 {
		t.Errorf("CPUPoints = %v, want 50 (dead task excluded)", got)
	}
}

// TestFullyDeadComponentDecaysToIdle: once every task of a component is
// dead, its stats must drop to zero load instead of freezing at the last
// hot estimate — otherwise the controller chases a phantom hotspot
// forever. The dead tasks are also recorded for the planner to freeze.
func TestFullyDeadComponentDecaysToIdle(t *testing.T) {
	p := NewProfiler(ProfilerConfig{})
	p.OnWindow([]simulator.TaskSample{sample("t", "work", 3, "n0", 1.0, 2)})
	if got := p.Stats("t")[0].MaxUtilization; got != 1 {
		t.Fatalf("pre-death MaxUtilization = %v", got)
	}
	dead := sample("t", "work", 3, "n0", 0, 2)
	dead.Dead = true
	p.OnWindow([]simulator.TaskSample{dead})
	st := p.Stats("t")[0]
	if st.MaxUtilization != 0 || st.Utilization != 0 || st.MaxSlowdown != 1 || st.Tasks != 0 {
		t.Errorf("dead component did not decay: %+v", st)
	}
	if st.Windows != 2 {
		t.Errorf("Windows = %d", st.Windows)
	}
	if !p.DeadTasks("t")[3] {
		t.Error("dead task 3 not recorded")
	}
	if p.DeadTasks("other") != nil {
		t.Error("unknown topology has dead tasks")
	}
}

func TestMeasuredDemandsReplaceDeclaredCPU(t *testing.T) {
	b := topology.NewBuilder("t")
	b.SetSpout("s", 1).SetCPULoad(10).SetMemoryLoad(256)
	b.SetBolt("work", 1).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(512)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := NewProfiler(ProfilerConfig{})
	p.OnWindow([]simulator.TaskSample{
		sample("t", "s", 0, "n0", 0.1, 1),
		sample("t", "work", 1, "n1", 1.0, 2),
	})
	d := p.MeasuredDemands(topo)
	if got := d["work"].CPU; math.Abs(got-200) > 1e-9 {
		// Sole busy task on a 2x-stretched node: attributed the whole f*C.
		t.Errorf("work CPU = %v, want 200", got)
	}
	if got := d["work"].MemoryMB; got != 512 {
		t.Errorf("work memory = %v, want declared 512", got)
	}
	if got := d["s"].CPU; math.Abs(got-10) > 1e-9 {
		t.Errorf("spout CPU = %v, want 10", got)
	}
}

// memSample is sample() plus the runtime memory model's fields.
func memSample(topo, comp string, id int, node cluster.NodeID, residentMB float64) simulator.TaskSample {
	s := sample(topo, comp, id, node, 0.2, 1)
	s.ResidentMemMB = residentMB
	s.NodeMemCapacityMB = 2048
	return s
}

// TestMeasuredDemandsProjectMemoryGrowth: once samples carry resident
// memory (the runtime memory model is on), the memory axis must become
// the measured max resident plus the lookahead projection of its growth
// slope — and on memory-blind samples, declarations stay authoritative.
func TestMeasuredDemandsProjectMemoryGrowth(t *testing.T) {
	b := topology.NewBuilder("t")
	b.SetSpout("s", 1).SetCPULoad(10).SetMemoryLoad(256)
	b.SetBolt("cache", 2).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(128)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := NewProfiler(ProfilerConfig{MemLookaheadWindows: 4})
	// Two windows: the cache stage's max resident grows 300 -> 400.
	p.OnWindow([]simulator.TaskSample{
		memSample("t", "s", 0, "n0", 64),
		memSample("t", "cache", 1, "n1", 250),
		memSample("t", "cache", 2, "n1", 300),
	})
	p.OnWindow([]simulator.TaskSample{
		memSample("t", "s", 0, "n0", 64),
		memSample("t", "cache", 1, "n1", 350),
		memSample("t", "cache", 2, "n1", 400),
	})
	d := p.MeasuredDemands(topo)
	// α = 0.5: MemResidentMB = 0.5·400 + 0.5·300 = 350; the first growth
	// of 100 MB folds into a zero slope, so MemGrowthMB = 50; projected 4
	// windows ahead.
	if got, want := d["cache"].MemoryMB, 350.0+4*50.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("cache memory = %v, want %v (max resident + 4 windows of growth)", got, want)
	}
	// The honest flat component projects no growth.
	if got := d["s"].MemoryMB; math.Abs(got-64) > 1e-9 {
		t.Errorf("spout memory = %v, want measured 64", got)
	}

	// Memory-blind samples (the runtime memory model is off, so no sample
	// ever carries a node memory capacity): declarations must survive.
	off := NewProfiler(ProfilerConfig{})
	off.OnWindow([]simulator.TaskSample{
		sample("t", "s", 0, "n0", 0.2, 1),
		sample("t", "cache", 1, "n1", 0.2, 1),
	})
	if got := off.MeasuredDemands(topo)["cache"].MemoryMB; got != 128 {
		t.Errorf("memory-blind run: cache memory = %v, want declared 128", got)
	}
}

// TestMemGrowthNormalizesPartialWindows: a partial flush (mid-window
// Reassign, trailing Finish) spans less than a full metrics window; its
// resident delta must be scaled up so MemGrowthMB stays a per-full-window
// slope and the lookahead projection does not undersize the demand.
func TestMemGrowthNormalizesPartialWindows(t *testing.T) {
	at := func(start, end time.Duration, residentMB float64) []simulator.TaskSample {
		s := memSample("t", "cache", 0, "n0", residentMB)
		s.WindowStart, s.WindowEnd = start, end
		return []simulator.TaskSample{s}
	}
	p := NewProfiler(ProfilerConfig{MemLookaheadWindows: 1})
	// One full 1s window, then a half-window partial flush over which the
	// resident grew 50 MB — i.e. a 100 MB/full-window slope.
	p.OnWindow(at(0, time.Second, 100))
	p.OnWindow(at(time.Second, 1500*time.Millisecond, 150))
	st := p.Stats("t")
	if len(st) != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// 50 MB over half a window folds in as 100 MB into a zero slope at
	// α = 0.5; unscaled it would read 25.
	if got := st[0].MemGrowthMB; math.Abs(got-50) > 1e-9 {
		t.Errorf("MemGrowthMB = %v, want 50 (50 MB over half a window, then α = 0.5)", got)
	}
}
