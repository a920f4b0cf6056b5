package simulator

import (
	"testing"
	"time"

	"rstorm/internal/core"
)

// TestTrailingPartialWindowFlushed is the regression for the dropped-tail
// bug: when Duration is not a multiple of MetricsWindow, the counters of
// the final partial window used to never reach the Observer. Finish must
// deliver them, bounded to the real interval.
func TestTrailingPartialWindowFlushed(t *testing.T) {
	topo := chainTopo(t, 2, 150*time.Microsecond, 100*time.Microsecond, 256, 20)
	c := emulabCluster(t)
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, Config{
		Duration:      2500 * time.Millisecond,
		MetricsWindow: time.Second,
	})
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
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := len(obs.windows), 3; got != want {
		t.Fatalf("windows = %d, want %d (2 full + 1 partial tail)", got, want)
	}
	tail := obs.windows[2]
	for _, s := range tail {
		if s.WindowStart != 2*time.Second || s.WindowEnd != 2500*time.Millisecond {
			t.Fatalf("tail window spans [%v, %v), want [2s, 2.5s)", s.WindowStart, s.WindowEnd)
		}
	}
	// Nothing may be lost or double-counted: summed window counters must
	// equal the run totals exactly.
	var processed, emitted int64
	for _, samples := range obs.windows {
		for _, s := range samples {
			processed += s.Processed
			emitted += s.Emitted
		}
	}
	tr := res.Topology("chain")
	if processed != tr.TuplesProcessed {
		t.Errorf("windows saw %d processed, run counted %d", processed, tr.TuplesProcessed)
	}
	if emitted != tr.TuplesEmitted {
		t.Errorf("windows saw %d emitted, run counted %d", emitted, tr.TuplesEmitted)
	}
	var tailWork int64
	for _, s := range tail {
		tailWork += s.Processed
	}
	if tailWork == 0 {
		t.Error("partial tail window carried no work; the flush is vacuous")
	}
}

// TestReassignMidWindowFlushesPartialWindow: a migration landing inside a
// metrics window must first flush the pre-migration slice, so the samples
// attribute that work to the node it actually ran on.
func TestReassignMidWindowFlushesPartialWindow(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	topo, _ := twoNodeChain(t, 2*time.Millisecond, 8)
	a := core.NewAssignment("pair", "manual")
	a.Place(0, core.Placement{Node: ids[0], Slot: 0})
	a.Place(1, core.Placement{Node: ids[1], Slot: 0})
	sim, err := New(c, Config{
		Duration:      4 * time.Second,
		MetricsWindow: time.Second,
	})
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
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunTo(1500 * time.Millisecond); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	next := core.NewAssignment("pair", "manual")
	next.Place(0, core.Placement{Node: ids[0], Slot: 0})
	next.Place(1, core.Placement{Node: ids[2], Slot: 0})
	if moved, err := sim.Reassign("pair", next); err != nil || moved != 1 {
		t.Fatalf("Reassign = %d, %v, want 1 move", moved, err)
	}
	if _, err := sim.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Expect flushes at 1s, the partial [1s, 1.5s) slice, then the
	// remainder windows.
	if len(obs.windows) < 3 {
		t.Fatalf("only %d windows observed", len(obs.windows))
	}
	partial := obs.windows[1]
	for _, s := range partial {
		if s.WindowStart != time.Second || s.WindowEnd != 1500*time.Millisecond {
			t.Fatalf("second flush spans [%v, %v), want [1s, 1.5s)", s.WindowStart, s.WindowEnd)
		}
		if s.TaskID == 1 && s.Node != ids[1] {
			t.Errorf("pre-migration slice attributed to %s, want old node %s", s.Node, ids[1])
		}
	}
	after := obs.windows[2]
	for _, s := range after {
		if s.TaskID == 1 && s.Node != ids[2] {
			t.Errorf("post-migration window attributed to %s, want new node %s", s.Node, ids[2])
		}
	}
}

// TestSeriesMatchObserverWindows: the Result's throughput series and the
// observer's samples come from the same flushes. A mid-window Reassign
// splits window 1 into two flushes, which must land in one bucket, and
// the trailing partial window [4s, 4.5s) has no bucket. With no tuple
// timeout every sink arrival is delivered, so each bucket equals the
// samples' LatencyN (sink) and Processed (bolt) summed over its window.
func TestSeriesMatchObserverWindows(t *testing.T) {
	c := emulabCluster(t)
	ids := c.NodeIDs()
	topo, _ := twoNodeChain(t, 2*time.Millisecond, 8)
	a := core.NewAssignment("pair", "manual")
	a.Place(0, core.Placement{Node: ids[0], Slot: 0})
	a.Place(1, core.Placement{Node: ids[1], Slot: 0})
	sim, err := New(c, Config{Duration: 4500 * time.Millisecond, MetricsWindow: time.Second})
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
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := sim.RunTo(1500 * time.Millisecond); err != nil {
		t.Fatalf("RunTo: %v", err)
	}
	next := core.NewAssignment("pair", "manual")
	next.Place(0, core.Placement{Node: ids[0], Slot: 0})
	next.Place(1, core.Placement{Node: ids[2], Slot: 0})
	if _, err := sim.Reassign("pair", next); err != nil {
		t.Fatalf("Reassign: %v", err)
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(obs.windows) != 6 {
		t.Fatalf("%d flushes, want 6 (a split window and a trailing partial one)", len(obs.windows))
	}
	sink := make([]float64, 5)
	processed := make([]float64, 5)
	for _, w := range obs.windows {
		for _, s := range w {
			i := int(s.WindowStart / time.Second)
			sink[i] += float64(s.LatencyN)
			processed[i] += float64(s.Processed)
		}
	}
	tr := res.Topology("pair")
	if len(tr.SinkSeries) != 4 {
		t.Fatalf("SinkSeries has %d windows, want 4 full ones", len(tr.SinkSeries))
	}
	for i := 0; i < 4; i++ {
		if tr.SinkSeries[i] != sink[i] || tr.ComponentSeries["d"][i] != processed[i] {
			t.Errorf("window %d: series read %v sunk, %v processed; samples %v and %v",
				i, tr.SinkSeries[i], tr.ComponentSeries["d"][i], sink[i], processed[i])
		}
		if sink[i] == 0 {
			t.Errorf("window %d: nothing reached the sink", i)
		}
	}
	if sink[4] == 0 {
		t.Error("the trailing partial window carried no arrivals; its exclusion is untested")
	}
	if _, ok := tr.ComponentSeries["s"]; ok {
		t.Error("the spout, which executes no tuples, has a component series")
	}
}
