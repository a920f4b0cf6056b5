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
// takes testing.TB, where the helpers in sim_test.go take *testing.T).
func benchChainTopo(b testing.TB, par int, spoutCost, boltCost time.Duration) *topology.Topology {
	b.Helper()
	bld := topology.NewBuilder("chain")
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

// benchSim schedules topo on Emulab12 and runs the simulation past the
// warm-up point where the event/tuple/tree free lists have grown to the
// steady population, so the measured region is the amortized-zero régime
// the //rstorm:hotpath annotations claim.
func benchSim(b testing.TB, topo *topology.Topology, cfg Config) (*Simulation, time.Duration) {
	b.Helper()
	c, err := cluster.Emulab12()
	if err != nil {
		b.Fatalf("Emulab12: %v", err)
	}
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		b.Fatalf("schedule: %v", err)
	}
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
	return benchChainTopo(tb, 2, 200*time.Microsecond, 100*time.Microsecond), Config{
		Duration:      24 * time.Hour,
		MetricsWindow: time.Second,
	}
}

func overloadConfig(tb testing.TB) (*topology.Topology, Config) {
	return benchChainTopo(tb, 2, 50*time.Microsecond, 400*time.Microsecond), Config{
		Duration:      24 * time.Hour,
		MetricsWindow: time.Second,
		QueueCapacity: 4,
		TupleTimeout:  500 * time.Millisecond,
	}
}

// TestTuplePathAllocs enforces in go test what the benchmarks below
// report: once warm, the one-lane tuple path makes 0 allocations per
// 100 ms RunTo slice, which over 100 slices means fewer than 100 mallocs.
// Per-tuple work would malloc hundreds of thousands of times. What does
// remain is metrics.Windowed growing its per-window bucket slices: each
// series doubles a few times as the run crosses new windows.
func TestTuplePathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		config func(testing.TB) (*topology.Topology, Config)
	}{
		{"steady-state", steadyStateConfig},
		{"overload", overloadConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, cfg := tc.config(t)
			sim, now := benchSim(t, topo, cfg)
			const slices, slice = 100, 100 * time.Millisecond
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
			if mallocs >= slices {
				t.Fatalf("%d mallocs over %d RunTo slices: the tuple path allocates", mallocs, slices)
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
	sim, now := benchSim(b, topo, cfg)
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
	sim, now := benchSim(b, topo, cfg)
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
	topo := benchChainTopo(b, 2, 200*time.Microsecond, 100*time.Microsecond)
	sim, now := benchSim(b, topo, Config{
		Duration:      24 * time.Hour,
		MetricsWindow: time.Second,
		MemoryModel:   true,
	})
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
	topo := benchChainTopo(b, 2, 200*time.Microsecond, 100*time.Microsecond)
	sim, now := benchSim(b, topo, Config{
		Duration:          24 * time.Hour,
		MetricsWindow:     time.Second,
		LatencyHistograms: true,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Millisecond
		if err := sim.RunTo(now); err != nil {
			b.Fatal(err)
		}
	}
}
