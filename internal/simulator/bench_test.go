package simulator

import (
	"runtime"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/topology"
)

// benchChainTopo is chainTopo for benchmarks and allocation tests (it
// takes testing.TB, where the helpers in sim_test.go take *testing.T),
// with a max spout pending (0: the simulator's default).
func benchChainTopo(b testing.TB, par int, spoutCost, boltCost time.Duration, maxPending int) *topology.Topology {
	b.Helper()
	bld := topology.NewBuilder("chain")
	bld.SetMaxSpoutPending(maxPending)
	bld.SetSpout("spout", par).
		SetCPULoad(20).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: spoutCost, TupleBytes: 256})
	bld.SetBolt("work", par).ShuffleGrouping("spout").
		SetCPULoad(20).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: boltCost, TupleBytes: 256})
	bld.SetBolt("sink", par).ShuffleGrouping("work").
		SetCPULoad(20).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: boltCost, TupleBytes: 256})
	topo, err := bld.Build()
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	return topo
}

// A placer places topo on c for benchSim.
type placer func(tb testing.TB, topo *topology.Topology, c *cluster.Cluster) *core.Assignment

// rstormPlaced schedules topo with R-Storm.
func rstormPlaced(tb testing.TB, topo *topology.Topology, c *cluster.Cluster) *core.Assignment {
	tb.Helper()
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, core.NewGlobalState(c))
	if err != nil {
		tb.Fatalf("schedule: %v", err)
	}
	return a
}

// crossRackPlaced puts each spout task on its own rack-0 node and each
// bolt task on its own rack-1 node, so with one lane per rack every tuple
// a spout emits crosses lanes, and no tuple crosses back.
func crossRackPlaced(tb testing.TB, topo *topology.Topology, c *cluster.Cluster) *core.Assignment {
	tb.Helper()
	racks := c.Racks()
	spoutNodes, boltNodes := c.NodesInRack(racks[0]), c.NodesInRack(racks[1])
	a := core.NewAssignment(topo.Name(), "cross-rack")
	spouts, bolts := 0, 0
	for _, task := range topo.Tasks() {
		if topo.Component(task.Component).Kind == topology.KindSpout {
			a.Place(task.ID, core.Placement{Node: spoutNodes[spouts]})
			spouts++
		} else {
			a.Place(task.ID, core.Placement{Node: boltNodes[bolts]})
			bolts++
		}
	}
	return a
}

// benchSim places topo on Emulab12 and runs the simulation past the
// warm-up point where the event/tuple/tree free lists have grown to the
// steady population, so the measured region is the amortized-zero régime
// the //rstorm:hotpath annotations claim.
func benchSim(b testing.TB, topo *topology.Topology, cfg Config, place placer) (*Simulation, time.Duration) {
	b.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		b.Fatalf("Emulab12: %v", err)
	}
	a := place(b, topo, c)
	sim, err := New(c, cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		b.Fatalf("AddTopology: %v", err)
	}
	if err := sim.Start(); err != nil {
		b.Fatalf("Start: %v", err)
	}
	warm := 2 * time.Second
	if err := sim.RunTo(warm); err != nil {
		b.Fatalf("RunTo: %v", err)
	}
	return sim, warm
}

// steadyStateConfig and overloadConfig are the workloads of the tuple-path
// benchmarks, shared with TestTuplePathAllocs.
func steadyStateConfig(tb testing.TB) (*topology.Topology, Config) {
	return benchChainTopo(tb, 2, 200*time.Microsecond, 100*time.Microsecond, 0), Config{
		Duration:      24 * time.Hour,
		MetricsWindow: time.Second,
	}
}

// The overload workload's spouts may hold 1024 trees each, far more than
// the 128-tuple bolt queues take, so the queues stay full and producers
// park on them.
func overloadConfig(tb testing.TB) (*topology.Topology, Config) {
	return benchChainTopo(tb, 2, 50*time.Microsecond, 400*time.Microsecond, 1024), Config{
		Duration:      24 * time.Hour,
		MetricsWindow: time.Second,
		TupleTimeout:  500 * time.Millisecond,
	}
}

// TestTuplePathAllocs enforces in go test what the benchmarks below
// report: once warm, the tuple path and the window flushes allocate
// nothing over 100 RunTo slices of 100 ms, ten flushes among them. Each
// chain runs on one lane, and again at Shards = 2 with every spout on
// rack 0 and every bolt on rack 1, so each tuple crosses lanes one way and
// the destination lane's free list must pay the source back. Per-tuple
// work would malloc hundreds of thousands of times (an unpaid crossing
// mallocs once per tuple: about 100,000 and 50,000 here), and one
// allocation per flush ten times, which is above the allowance. The
// allowance covers the runtime's own mallocs early in a test process (up
// to 5 seen, in a few runs of 80): the simulation is deterministic, so an
// allocation of its own would show in every run.
func TestTuplePathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		config   func(testing.TB) (*topology.Topology, Config)
		shards   int
		place    placer
		backedUp bool // bolt queues full with producers parked
	}{
		{"steady-state", steadyStateConfig, 0, rstormPlaced, false},
		{"overload", overloadConfig, 0, rstormPlaced, true},
		{"steady-state-cross-rack", steadyStateConfig, 2, crossRackPlaced, false},
		{"overload-cross-rack", overloadConfig, 2, crossRackPlaced, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, cfg := tc.config(t)
			cfg.Shards = tc.shards
			sim, now := benchSim(t, topo, cfg, tc.place)
			defer sim.coord.Stop()
			const slices, slice, allowance = 100, 100 * time.Millisecond, 8
			// A collection first: the runtime's first cycle starts its mark
			// workers, whose goroutines would count as mallocs.
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < slices; i++ {
				now += slice
				if err := sim.RunTo(now); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			mallocs := after.Mallocs - before.Mallocs
			t.Logf("%d mallocs over %d slices (%d metrics windows)", mallocs, slices, slices*slice/cfg.MetricsWindow)
			if mallocs > allowance {
				t.Fatalf("%d mallocs over %d RunTo slices, want at most %d: the tuple path or a flush allocates",
					mallocs, slices, allowance)
			}
			full := 0
			for _, st := range sim.runs[0].ordered {
				if st.queue.len() == queueCapacity && st.queue.waiters.Len() > 0 {
					full++
				}
			}
			if backedUp := full > 0; backedUp != tc.backedUp {
				t.Errorf("%d bolt queues full with parked producers, want backed up %v", full, tc.backedUp)
			}
		})
	}
}

// BenchmarkTuplePathSteadyState drives the full annotated tuple path —
// spoutCycle/spoutFire → routeOutputs → deliver/enqueueAt →
// boltTry/boltFire → recordSink/completeTree, plus the event/tuple/tree
// pools and bounded queues underneath — for 100ms simulated slices.
func BenchmarkTuplePathSteadyState(b *testing.B) {
	topo, cfg := steadyStateConfig(b)
	sim, now := benchSim(b, topo, cfg, rstormPlaced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Millisecond
		if err := sim.RunTo(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuplePathOverload runs the same path saturated: a slow bolt
// behind tiny queues keeps them full, so every slice also exercises the
// overflow branches (addWaiter, dropTuple → failTuple, tree failure).
func BenchmarkTuplePathOverload(b *testing.B) {
	topo, cfg := overloadConfig(b)
	sim, now := benchSim(b, topo, cfg, rstormPlaced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Millisecond
		if err := sim.RunTo(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryModelSteadyState adds the memory model so the per-tuple
// residentMemMB/nodeResidentMemMB accounting is on the measured path.
func BenchmarkMemoryModelSteadyState(b *testing.B) {
	topo := benchChainTopo(b, 2, 200*time.Microsecond, 100*time.Microsecond, 0)
	sim, now := benchSim(b, topo, Config{
		Duration:      24 * time.Hour,
		MetricsWindow: time.Second,
		MemoryModel:   true,
	}, rstormPlaced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Millisecond
		if err := sim.RunTo(now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyHistogramPath puts Histogram.Observe on the sink path.
func BenchmarkLatencyHistogramPath(b *testing.B) {
	topo := benchChainTopo(b, 2, 200*time.Microsecond, 100*time.Microsecond, 0)
	sim, now := benchSim(b, topo, Config{
		Duration:          24 * time.Hour,
		MetricsWindow:     time.Second,
		LatencyHistograms: true,
	}, rstormPlaced)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Millisecond
		if err := sim.RunTo(now); err != nil {
			b.Fatal(err)
		}
	}
}
