package experiments

import (
	"fmt"
	"sort"
	"time"

	"rstorm/internal/adaptive"
	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/metrics"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// failoverWindow is the control-loop granularity of the failover
// experiment — fine enough to resolve the crash dip and the recovery ramp.
const failoverWindow = 500 * time.Millisecond

// failoverFlapDamping is the adaptive run's recovered-node embargo, in
// control epochs.
const failoverFlapDamping = 3

// Failover regenerates the self-healing figure (DESIGN.md §7): an
// honestly-declared chain loses the node hosting the most tasks at one
// third of the run and gets it back at two thirds, under at-least-once
// replay. Run twice — static R-Storm (schedule once, never react) and
// R-Storm with the adaptive loop's failover trigger closing the loop.
func Failover() Experiment {
	return Experiment{
		ID:    "failover",
		Title: "Self-healing failover under a scripted node crash",
		PaperClaim: "(beyond the paper: crash-killed tasks stay dead under the static " +
			"schedule — throughput never recovers; the failover trigger re-places them " +
			"and recovers >=90% of pre-crash throughput, with measured time-to-recover)",
		Run: runFailover,
	}
}

// chainTopology is the failover workload: an honest three-stage chain
// whose declared and true demands agree, so the only perturbation in the
// experiment is the injected fault schedule.
func chainTopology() (*topology.Topology, error) {
	b := topology.NewBuilder("chain")
	b.SetSpout("s", 2).SetCPULoad(20).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("work", 4).ShuffleGrouping("s").SetCPULoad(25).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 300 * time.Microsecond, TupleBytes: 128})
	b.SetBolt("z", 2).ShuffleGrouping("work").SetCPULoad(10).SetMemoryLoad(128).
		SetProfile(topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 128})
	return b.Build()
}

// busiestNode picks the node hosting the most tasks of the assignment
// (ties: lexicographically smallest ID) — the crash target that hurts the
// schedule the most.
func busiestNode(topo *topology.Topology, a *core.Assignment) cluster.NodeID {
	counts := make(map[cluster.NodeID]int)
	for _, task := range topo.Tasks() {
		counts[a.Placements[task.ID].Node]++
	}
	ids := make([]cluster.NodeID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	best := ids[0]
	for _, id := range ids[1:] {
		if counts[id] > counts[best] {
			best = id
		}
	}
	return best
}

func runFailover(o Options) (*Report, error) {
	o = o.withDefaults()
	c, err := emulab12()
	if err != nil {
		return nil, err
	}
	crashAt := o.Duration / 3
	recoverAt := 2 * o.Duration / 3
	cfg := simulator.Config{
		Duration:          o.Duration,
		MetricsWindow:     failoverWindow,
		Seed:              o.Seed,
		Replay:            true,
		LatencyHistograms: o.Percentiles,
		Shards:            o.Shards,
	}

	// Both runs schedule identically (same scheduler, same declarations),
	// so one scratch pass pins the crash target for both.
	probe, err := chainTopology()
	if err != nil {
		return nil, err
	}
	probeAssign, err := core.NewResourceAwareScheduler().Schedule(probe, c, core.NewGlobalState(c))
	if err != nil {
		return nil, fmt.Errorf("failover probe schedule: %w", err)
	}
	victim := busiestNode(probe, probeAssign)
	schedule := faults.Schedule{
		{Kind: faults.Crash, Node: victim, At: crashAt},
		{Kind: faults.Recover, Node: victim, At: recoverAt},
	}

	staticTopo, err := chainTopology()
	if err != nil {
		return nil, err
	}
	staticSim, _, err := load(c, []*topology.Topology{staticTopo}, core.NewResourceAwareScheduler(), cfg)
	if err != nil {
		return nil, fmt.Errorf("failover static: %w", err)
	}
	if err := schedule.Apply(staticSim); err != nil {
		return nil, err
	}
	static, err := staticSim.Run()
	if err != nil {
		return nil, fmt.Errorf("failover static: %w", err)
	}

	adaptiveTopo, err := chainTopology()
	if err != nil {
		return nil, err
	}
	loopCfg := adaptive.LoopConfig{FlapDamping: failoverFlapDamping}
	adaptiveOut, err := simulateAdaptive(c, adaptiveTopo, cfg, loopCfg, schedule)
	if err != nil {
		return nil, fmt.Errorf("failover adaptive: %w", err)
	}

	name := staticTopo.Name()
	staticTR := static.Topology(name)
	adaptiveTR := adaptiveOut.Result.Topology(name)
	// Pre-crash baseline: the fully-healthy windows after warmup, before
	// the crash window. Identical placements make the two runs agree here;
	// measure each from its own series anyway.
	crashWin := int(crashAt / failoverWindow)
	preCrash := func(series []float64) float64 {
		if crashWin <= 1 || crashWin > len(series) {
			return steadyMean(series)
		}
		return metrics.Mean(series[1:crashWin])
	}
	staticPre := preCrash(staticTR.SinkSeries)
	adaptivePre := preCrash(adaptiveTR.SinkSeries)
	staticSteady := steadyMean(staticTR.SinkSeries)
	adaptiveSteady := steadyMean(adaptiveTR.SinkSeries)

	unit := fmt.Sprintf("throughput (tuples/%s)", failoverWindow)
	report := &Report{
		ID:    "failover",
		Title: "Self-healing failover under a scripted node crash",
		PaperClaim: "static stays degraded after the crash; the failover trigger " +
			"recovers >=90% of pre-crash throughput",
		Window: failoverWindow,
		Series: map[string][]float64{
			"static (no failover)": staticTR.SinkSeries,
			"adaptive (failover)":  adaptiveTR.SinkSeries,
		},
		Rows: []Row{
			{
				// The headline: post-crash steady state, static vs failover.
				Label:          unit + " after crash: static vs adaptive",
				Baseline:       staticSteady,
				RStorm:         adaptiveSteady,
				ImprovementPct: metrics.ImprovementPct(staticSteady, adaptiveSteady),
			},
			{
				// Recovery ratio against the run's own pre-crash baseline.
				Label:          unit + ": pre-crash vs adaptive post-crash (recovery)",
				Baseline:       adaptivePre,
				RStorm:         adaptiveSteady,
				ImprovementPct: metrics.ImprovementPct(adaptivePre, adaptiveSteady),
			},
			{
				Label:          unit + ": pre-crash vs static post-crash (the damage)",
				Baseline:       staticPre,
				RStorm:         staticSteady,
				ImprovementPct: metrics.ImprovementPct(staticPre, staticSteady),
			},
			{
				// Time from the crash to the first recovered window;
				// -1 = never recovered within the run.
				Label:    "time-to-recover (s)",
				Baseline: recoverySeconds(staticTR.RecoveryTime),
				RStorm:   recoverySeconds(adaptiveTR.RecoveryTime),
			},
			{
				Label:    "tuples replayed (at-least-once)",
				Baseline: float64(static.TuplesReplayed),
				RStorm:   float64(adaptiveOut.Result.TuplesReplayed),
			},
			{
				Label:    "tuples dropped",
				Baseline: float64(static.TuplesDropped),
				RStorm:   float64(adaptiveOut.Result.TuplesDropped),
			},
			{
				Label:    "victim downtime (s)",
				Baseline: static.NodeDowntime[victim].Seconds(),
				RStorm:   adaptiveOut.Result.NodeDowntime[victim].Seconds(),
			},
		},
	}
	if o.Percentiles {
		// The latency story behind the throughput dip: the static run's
		// post-crash p99 is zero because nothing reaches the sinks at all,
		// while the failover run spikes (the chain re-equilibrates on less
		// capacity) and then holds a bounded steady state — tuples keep
		// flowing at a higher but stable tail.
		report.Rows = append(report.Rows,
			Row{
				Label:    "p99 latency (ms): pre-crash max",
				Baseline: maxWindow(windowRange(staticTR.LatencyP99Series, 1, crashWin)),
				RStorm:   maxWindow(windowRange(adaptiveTR.LatencyP99Series, 1, crashWin)),
			},
			Row{
				Label:    "p99 latency (ms): post-crash spike (max)",
				Baseline: maxWindow(windowRange(staticTR.LatencyP99Series, crashWin, -1)),
				RStorm:   maxWindow(windowRange(adaptiveTR.LatencyP99Series, crashWin, -1)),
			},
			Row{
				Label:    "p99 latency (ms): final window (0 = starved)",
				Baseline: lastWindow(staticTR.LatencyP99Series),
				RStorm:   lastWindow(adaptiveTR.LatencyP99Series),
			},
			Row{
				Label:    "p99 latency (ms): whole run",
				Baseline: float64(staticTR.LatencyP99) / float64(time.Millisecond),
				RStorm:   float64(adaptiveTR.LatencyP99) / float64(time.Millisecond),
			},
		)
	}
	return report, nil
}

// windowRange slices [lo, hi) out of a per-window series with clamping
// (hi < 0 means the end), so the p99 rows survive runs too short for the
// crash to land where the schedule expects it.
func windowRange(series []float64, lo, hi int) []float64 {
	if hi < 0 || hi > len(series) {
		hi = len(series)
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return nil
	}
	return series[lo:hi]
}

// maxWindow returns the largest value of a per-window series slice (zero
// when empty).
func maxWindow(series []float64) float64 {
	var max float64
	for _, v := range series {
		if v > max {
			max = v
		}
	}
	return max
}

// lastWindow returns the final entry of a series (zero when empty).
func lastWindow(series []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	return series[len(series)-1]
}

// recoverySeconds renders the simulator's RecoveryTime for a report row:
// the negative "never recovered" sentinel becomes a clean -1.
func recoverySeconds(d time.Duration) float64 {
	if d < 0 {
		return -1
	}
	return d.Seconds()
}
