package rstorm_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rstorm"
	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/experiments"
	"rstorm/internal/workloads"
)

// benchOpts keeps figure benchmarks affordable: three 4-second windows per
// run (one warm-up) instead of the paper's 15 minutes. rstorm-sim -matrix
// runs figures at longer durations; internal/experiments/testdata/golden
// records every figure's full report.
func benchOpts() experiments.Options {
	return experiments.Options{
		Duration:      12 * time.Second,
		MetricsWindow: 4 * time.Second,
		Seed:          1,
	}
}

// benchFigure runs one figure experiment per iteration and reports the
// headline comparison as custom metrics.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		report, err := e.Run(benchOpts())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		last = report
	}
	if last == nil {
		b.Fatalf("%s: no report produced; headline metrics would be silently dropped", id)
	}
	if len(last.Rows) == 0 {
		b.Fatalf("%s: report has no rows; headline metrics would be silently dropped", id)
	}
	row := last.Rows[0]
	b.ReportMetric(row.Baseline, "default")
	b.ReportMetric(row.RStorm, "rstorm")
	b.ReportMetric(row.ImprovementPct, "improve_%")
}

// Figure 8: network-bound micro-benchmarks (paper: +50% / +30% / +47%).

func BenchmarkFig8aLinearNetworkBound(b *testing.B)  { benchFigure(b, "fig8a") }
func BenchmarkFig8bDiamondNetworkBound(b *testing.B) { benchFigure(b, "fig8b") }
func BenchmarkFig8cStarNetworkBound(b *testing.B)    { benchFigure(b, "fig8c") }

// Figure 9: compute-bound micro-benchmarks (paper: equal throughput on
// half the machines; star bottlenecked under default).

func BenchmarkFig9aLinearComputeBound(b *testing.B)  { benchFigure(b, "fig9a") }
func BenchmarkFig9bDiamondComputeBound(b *testing.B) { benchFigure(b, "fig9b") }
func BenchmarkFig9cStarComputeBound(b *testing.B)    { benchFigure(b, "fig9c") }

// Figure 10: CPU utilization comparison (paper: +69% / +91% / +350%).

func BenchmarkFig10CPUUtilization(b *testing.B) { benchFigure(b, "fig10") }

// Figure 12: Yahoo! production topologies (paper: +50% / +47%).

func BenchmarkFig12aPageLoad(b *testing.B)   { benchFigure(b, "fig12a") }
func BenchmarkFig12bProcessing(b *testing.B) { benchFigure(b, "fig12b") }

// Figure 13: multi-topology scheduling on 24 nodes (paper: PageLoad +53%,
// Processing collapses under default Storm).

func BenchmarkFig13MultiTopology(b *testing.B) { benchFigure(b, "fig13") }

// Ablations from DESIGN.md.

func BenchmarkAblationTaskOrdering(b *testing.B)  { benchFigure(b, "ablationA") }
func BenchmarkAblationGreedyVsExact(b *testing.B) { benchFigure(b, "ablationB") }
func BenchmarkAblationWeights(b *testing.B)       { benchFigure(b, "ablationC") }

// Runtime memory model (DESIGN.md §4): the memstress scenario fixes its
// own duration/window, so benchOpts only contributes the seed.

func BenchmarkMemStressRuntimeMemory(b *testing.B) { benchFigure(b, "memstress") }

// Scheduler latency: §3 demands that "scheduling decisions need to be made
// in a snappy manner". These benchmarks measure schedule-computation time
// as the task count grows.

func schedulerLatencyTopo(b *testing.B, components, par int) *rstorm.Topology {
	b.Helper()
	tb := rstorm.NewTopologyBuilder("lat")
	tb.SetSpout("c0", par).SetCPULoad(5).SetMemoryLoad(16)
	for i := 1; i < components; i++ {
		tb.SetBolt(fmt.Sprintf("c%d", i), par).
			ShuffleGrouping(fmt.Sprintf("c%d", i-1)).
			SetCPULoad(5).SetMemoryLoad(16)
	}
	topo, err := tb.Build()
	if err != nil {
		b.Fatalf("build: %v", err)
	}
	return topo
}

func benchSchedulerLatency(b *testing.B, sched rstorm.Scheduler, components, par, racks, nodesPerRack int) {
	b.Helper()
	b.ReportAllocs()
	topo := schedulerLatencyTopo(b, components, par)
	c, err := rstorm.TwoRack(racks, nodesPerRack, rstorm.EmulabNodeSpec())
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state := rstorm.NewGlobalState(c)
		if _, err := sched.Schedule(topo, c, state); err != nil {
			b.Fatalf("schedule: %v", err)
		}
	}
	b.ReportMetric(float64(topo.TotalTasks()), "tasks")
}

func BenchmarkSchedulerLatencyRStorm40Tasks(b *testing.B) {
	benchSchedulerLatency(b, rstorm.NewResourceAwareScheduler(), 4, 10, 2, 6)
}

func BenchmarkSchedulerLatencyRStorm400Tasks(b *testing.B) {
	benchSchedulerLatency(b, rstorm.NewResourceAwareScheduler(), 8, 50, 4, 16)
}

func BenchmarkSchedulerLatencyRStorm4000Tasks(b *testing.B) {
	benchSchedulerLatency(b, rstorm.NewResourceAwareScheduler(), 8, 500, 8, 32)
}

func BenchmarkSchedulerLatencyEven400Tasks(b *testing.B) {
	benchSchedulerLatency(b, rstorm.NewEvenScheduler(), 8, 50, 4, 16)
}

func BenchmarkSchedulerLatencyOffline400Tasks(b *testing.B) {
	benchSchedulerLatency(b, rstorm.NewOfflineLinearScheduler(), 8, 50, 4, 16)
}

// Simulator engine throughput: tuples processed per wall-clock second on
// the Fig. 8a workload, a sanity check that the DES can sustain the
// evaluation's event rates.

func benchSimulatorThroughput(b *testing.B, memoryModel bool) {
	benchSimulatorThroughputFull(b, memoryModel, false, false)
}

func benchSimulatorThroughputObserved(b *testing.B, memoryModel, observed bool) {
	benchSimulatorThroughputFull(b, memoryModel, observed, false)
}

// benchEngineTopology builds the three-stage pipeline every simulator
// throughput benchmark shares — spout → mid → sink, shuffle-grouped, at
// the given per-component parallelism. With the memory model on, the
// bolts also carry a growing working set, exercising the resident-memory
// accounting. The footprints stay well under capacity (8 tasks x 160 MB
// on a 2048 MB node): those benchmarks measure the accounting, not the
// kills — a single OOM would change the workload and make the comparison
// meaningless.
func benchEngineTopology(b *testing.B, name string, par int, memoryModel bool) *rstorm.Topology {
	b.Helper()
	profile := func(memMB float64) rstorm.ExecProfile {
		p := rstorm.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 256}
		if memoryModel {
			p.MemMB = memMB
			p.MemGrowTuples = 10000
		}
		return p
	}
	tb := rstorm.NewTopologyBuilder(name)
	tb.SetSpout("s", par).SetCPULoad(10).SetMemoryLoad(256).
		SetProfile(profile(0))
	tb.SetBolt("m", par).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(256).
		SetProfile(profile(160))
	tb.SetBolt("z", par).ShuffleGrouping("m").SetCPULoad(10).SetMemoryLoad(256).
		SetProfile(profile(160))
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return topo
}

func benchSimulatorThroughputFull(b *testing.B, memoryModel, observed, histograms bool) {
	b.Helper()
	b.ReportAllocs()
	c, err := cluster.Emulab12()
	if err != nil {
		b.Fatal(err)
	}
	topo := benchEngineTopology(b, "enginebench", 4, memoryModel)
	sched := rstorm.NewResourceAwareScheduler()
	var processed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rstorm.SimConfig{Duration: 5 * time.Second, MetricsWindow: time.Second,
			MemoryModel: memoryModel, LatencyHistograms: histograms}
		var result *rstorm.SimResult
		var err error
		if observed {
			// Attach the demand profiler so every window flush also
			// materializes the per-edge traffic counters — the tap whose
			// hot path must stay a single int add per delivery.
			state := rstorm.NewGlobalState(c)
			a, serr := sched.Schedule(topo, c, state)
			if serr != nil {
				b.Fatal(serr)
			}
			sim, serr := rstorm.NewSimulation(c, cfg)
			if serr != nil {
				b.Fatal(serr)
			}
			if serr := sim.AddTopology(topo, a); serr != nil {
				b.Fatal(serr)
			}
			if serr := sim.SetObserver(rstorm.NewDemandProfiler()); serr != nil {
				b.Fatal(serr)
			}
			result, err = sim.Run()
		} else {
			result, err = rstorm.ScheduleAndSimulate(c, cfg, sched, topo)
		}
		if err != nil {
			b.Fatal(err)
		}
		processed += result.Topology("enginebench").TuplesProcessed
	}
	b.StopTimer()
	if elapsed := b.Elapsed().Seconds(); elapsed > 0 {
		b.ReportMetric(float64(processed)/elapsed, "tuples/s")
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) { benchSimulatorThroughput(b, false) }

// BenchmarkSimulatorThroughputMemoryModel proves the runtime memory
// model's hot-path accounting (queue-byte adds, handled-tuple counter,
// per-window residency checks) stays allocation-free: allocs/op must match
// the memory-blind benchmark above, and tuples/s must stay within noise.
func BenchmarkSimulatorThroughputMemoryModel(b *testing.B) { benchSimulatorThroughput(b, true) }

// BenchmarkSimulatorThroughputTraffic proves the traffic tap stays off the
// allocation path: per-wire counting is one int add per delivery, and the
// profiler observer's per-window edge materialization reuses its buffers,
// so allocs/op stays O(windows + setup) — independent of tuple volume —
// and tuples/s within noise of the unobserved run.
func BenchmarkSimulatorThroughputTraffic(b *testing.B) {
	benchSimulatorThroughputObserved(b, false, true)
}

// BenchmarkSimulatorThroughputObservability measures the same engine run
// with per-topology latency histograms enabled: every delivered tuple also
// records into a log-bucketed histogram. The acceptance bar is <5%
// throughput regression versus BenchmarkSimulatorThroughput and identical
// allocs/op — histogram buckets are preallocated, so the tuple path must
// stay allocation-free.
func BenchmarkSimulatorThroughputObservability(b *testing.B) {
	benchSimulatorThroughputFull(b, false, false, true)
}

// rackStriped places task i on rack i mod R, node i div R of that rack,
// so every rack hosts spouts, mids and sinks, and shuffled tuples cross
// racks both ways.
type rackStriped struct{}

func (rackStriped) Name() string { return "rack-striped" }

func (rackStriped) Schedule(topo *rstorm.Topology, c *rstorm.Cluster, _ *rstorm.GlobalState) (*rstorm.Assignment, error) {
	racks := c.Racks()
	a := core.NewAssignment(topo.Name(), rackStriped{}.Name())
	for i, task := range topo.Tasks() {
		nodes := c.NodesInRack(racks[i%len(racks)])
		a.Place(task.ID, rstorm.Placement{Node: nodes[i/len(racks)]})
	}
	return a, nil
}

// BenchmarkSimulatorThroughputSharded runs a 400-node, 8-rack cluster
// executing a 96-task pipeline with one lane spanning the cluster
// (shards=0) and with one lane per rack (DESIGN.md §11) on 1 and 2
// workers, under two placements. Even gives task i the first free slot of
// node i, so the 96 tasks fill the first 96 nodes: rack-0 (32 s, 18 m)
// and rack-1 (14 m, 32 z). Only those two racks' lanes carry events, and
// every tuple that crosses racks goes from rack 0 to rack 1. Striped puts
// task i on rack i mod 8, so all eight lanes carry events and tuples
// cross every way.
//
// The two partitions are different models: at shards >= 1 a cross-rack
// ack pays the inter-rack latency, so a simulated second holds fewer
// tuples. ns/tuple (wall time per processed tuple) and allocs/tuple are
// the comparison metrics across partitions; tuples/s mixes the model
// difference into the speed. Results for shards >= 1 are byte-identical at
// every worker count, so those variants differ only in wall time.
func BenchmarkSimulatorThroughputSharded(b *testing.B) {
	c, err := cluster.TwoRack(8, 50, cluster.EmulabNodeSpec())
	if err != nil {
		b.Fatal(err)
	}
	topo := benchEngineTopology(b, "shardbench", 32, false)
	for _, pl := range []struct {
		name  string
		sched rstorm.Scheduler
	}{
		{"even", rstorm.NewEvenScheduler()},
		{"striped", rackStriped{}},
	} {
		b.Run(pl.name, func(b *testing.B) {
			for _, shards := range []int{0, 1, 2} {
				b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
					b.ReportAllocs()
					var processed int64
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cfg := rstorm.SimConfig{Duration: 2 * time.Second,
							MetricsWindow: time.Second, Shards: shards}
						result, err := rstorm.ScheduleAndSimulate(c, cfg, pl.sched, topo)
						if err != nil {
							b.Fatal(err)
						}
						processed += result.Topology("shardbench").TuplesProcessed
					}
					b.StopTimer()
					runtime.ReadMemStats(&after)
					if processed == 0 {
						b.Fatal("no tuple processed")
					}
					elapsed := b.Elapsed()
					b.ReportMetric(float64(processed)/elapsed.Seconds(), "tuples/s")
					b.ReportMetric(float64(elapsed.Nanoseconds())/float64(processed), "ns/tuple")
					b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(processed), "allocs/tuple")
				})
			}
		})
	}
}

// Multi-tenant control plane: cost of one Nimbus scheduling round on a
// loaded 24-node cluster. The FIFO variant admits nine equal-priority
// tenants (the pre-multi-tenancy behaviour, byte-identical with
// priorities unset); the MultiTenant variant times the round where a
// high-priority arrival on the full cluster takes the eviction path —
// priority ordering, greedy victim trial, teardown and re-queue.

func benchTenants(b *testing.B, n int) []*rstorm.Topology {
	b.Helper()
	out := make([]*rstorm.Topology, 0, n)
	for i := 0; i < n; i++ {
		topo, err := workloads.BatchTenant(fmt.Sprintf("batch-%02d", i))
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, topo)
	}
	return out
}

func BenchmarkSchedulingRoundFIFO(b *testing.B) {
	b.ReportAllocs()
	c, err := rstorm.Emulab24()
	if err != nil {
		b.Fatal(err)
	}
	batches := benchTenants(b, 9)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n, err := rstorm.NewNimbus(c, rstorm.NewResourceAwareScheduler())
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range c.NodeIDs() {
			if _, err := n.StartSupervisor(id); err != nil {
				b.Fatal(err)
			}
		}
		for _, topo := range batches {
			if err := n.SubmitTopology(topo); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if got := n.RunSchedulingRound(); len(got) != len(batches) {
			b.Fatalf("round scheduled %d of %d", len(got), len(batches))
		}
	}
}

func BenchmarkSchedulingRoundMultiTenant(b *testing.B) {
	b.ReportAllocs()
	c, err := rstorm.Emulab24()
	if err != nil {
		b.Fatal(err)
	}
	batches := benchTenants(b, 9)
	prod, err := workloads.ProdTenant(9)
	if err != nil {
		b.Fatal(err)
	}
	evictions := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n, err := rstorm.NewNimbus(c, rstorm.NewResourceAwareScheduler())
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range c.NodeIDs() {
			if _, err := n.StartSupervisor(id); err != nil {
				b.Fatal(err)
			}
		}
		for _, topo := range batches {
			if err := n.SubmitTopology(topo); err != nil {
				b.Fatal(err)
			}
		}
		if got := n.RunSchedulingRound(); len(got) != len(batches) {
			b.Fatalf("fill round scheduled %d of %d", len(got), len(batches))
		}
		if err := n.SubmitTopology(prod); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		got := n.RunSchedulingRound()
		b.StopTimer()
		if len(got) != 1 || got[0] != "prod" {
			b.Fatalf("eviction round scheduled %v, want [prod]", got)
		}
		if evs := n.Evictions(); len(evs) == 0 {
			b.Fatal("eviction path not exercised")
		} else {
			evictions += len(evs)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(evictions)/float64(b.N), "evictions/round")
	}
}

// Assignment analysis cost on a large placement.

func BenchmarkAssignmentNetworkCost(b *testing.B) {
	b.ReportAllocs()
	topo := schedulerLatencyTopo(b, 8, 50)
	c, err := rstorm.TwoRack(4, 16, rstorm.EmulabNodeSpec())
	if err != nil {
		b.Fatal(err)
	}
	a, err := rstorm.NewResourceAwareScheduler().Schedule(topo, c, rstorm.NewGlobalState(c))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.NetworkCost(topo, c)
	}
}
