// Command rstorm-sim runs a topology on the simulated cluster under a
// chosen scheduler and prints throughput, utilization and latency, plus a
// per-component measured-utilization table from the runtime metrics tap.
//
// Usage:
//
//	rstorm-sim -topology topo.json [-cluster cluster.yaml] \
//	           [-scheduler r-storm|default-even|offline-linear] \
//	           [-duration 60s] [-fail schedule] [-replay] \
//	           [-adaptive] [-control-interval 1s] [-memory] [-traffic] \
//	           [-shards N] [-percentiles] [-trace N] [-journal]
//	rstorm-sim -matrix "spec" [-workers N] [-shards N] [-duration 60s] [-window 10s] [-seed 1]
//	rstorm-sim -matrix list
//
// -fail takes a comma-separated chaos schedule (internal/faults): each
// event is [crash:|recover:|slow:]node@time[:factor], the bare node@time
// form being a crash. For example
//
//	-fail node-0-3@20s
//	-fail crash:node-0-3@20s,recover:node-0-3@40s,slow:node-0-5@10s:2.5
//
// crashes node-0-3 at t=20s (first form), or additionally brings it back
// at t=40s and degrades node-0-5's service times by 2.5x from t=10s
// (second form). -replay turns on at-least-once delivery: tuple trees
// failed by a crash or drain re-emit from their spout with bounded
// exponential backoff instead of dropping.
//
// Without -topology it runs the built-in network-bound Linear benchmark.
// With -adaptive the run is driven by the feedback control loop
// (internal/adaptive): measured per-component demands replace the declared
// ones and hotspots trigger incremental rebalances mid-run. With -memory
// the runtime memory model is enabled: resident memory (queued payload
// plus each task's possibly-growing working set) is accounted online, a
// node exceeding its capacity OOM-kills its worst offender, and the
// measured table gains declared-vs-measured memory columns; combined with
// -adaptive, measured memory replaces the declarations during replanning.
// With -traffic the report gains the measured edge-rate matrix and the
// run's inter-node tuple fraction; combined with -adaptive, consolidation
// (imbalance-triggered) rebalances minimize the measured network cost
// instead of ref-node distance.
//
// With -matrix the scenario orchestrator (DESIGN.md §10) runs registered
// experiments instead of a single simulation, among them the paper's
// figures, the multi-tenant scenario ("multitenant") and the chaos
// scenario ("failover"). -matrix list prints every experiment's ID, title
// and paper claim. The spec grammar is
//
//	<ids|all> [× seeds=<n..m|n,m,...>] [× duration=<d,...>] [× window=<d,...>]
//
// e.g. "failover,consolidate × seeds=1..16". Cells run across a bounded
// pool of -workers goroutines (default: all CPUs), each on a fully
// isolated simulator instance; -duration, -window and -seed supply the
// defaults for knobs the spec leaves unset. Output is merged in matrix
// order and is byte-identical for any worker count. -matrix composes
// with no other mode flag: a matrix run reads only -workers, -shards,
// -duration, -window, -seed and -percentiles, and refuses any other flag
// that was set, by name.
//
// -shards N chooses the event loop's lane partition (DESIGN.md §11): 0
// (the default) runs one lane spanning the cluster on one worker, the
// paper's model; N >= 1 runs one lane per rack, advanced in lookahead
// windows on up to N workers, with cross-rack acks paying the inter-rack
// latency. Results for N >= 1 are deterministic and identical for every
// N — past 1 the flag trades wall-clock time only, never output. It
// composes with every mode flag except the single-ordered-loop
// observability paths: -trace and -journal require -shards 0.
//
// The observability flags (DESIGN.md §8) are independent of the mode
// flags and off by default — leaving them off keeps every mode's output
// byte-identical to the uninstrumented simulator. -percentiles turns on
// the zero-allocation latency histograms and prints complete-tree latency
// percentiles (p50/p95/p99/max) plus the per-window p99 timeline; in a
// -matrix failover run it adds the failover latency-spike rows to the
// report. -trace N samples every Nth spout emission into a tuple trace
// and prints the reconstructed span trees (per-hop queue wait, service,
// and network time). -journal records the run's control-plane decisions
// (faults injected, OOM kills, triggers, rebalances) and prints them as
// JSONL.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"rstorm/internal/adaptive"
	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/experiments"
	"rstorm/internal/faults"
	"rstorm/internal/orchestra"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
	"rstorm/internal/viz"
	"rstorm/internal/workloads"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rstorm-sim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("rstorm-sim", flag.ContinueOnError)
	var (
		topoPath    = fs.String("topology", "", "JSON topology spec (default: built-in linear benchmark)")
		clusterPath = fs.String("cluster", "", "YAML cluster description (default: paper's 12-node testbed)")
		schedName   = fs.String("scheduler", "r-storm", "scheduler: r-storm, default-even, or offline-linear")
		duration    = fs.Duration("duration", 60*time.Second, "simulated duration")
		window      = fs.Duration("window", 10*time.Second, "metrics window")
		seed        = fs.Int64("seed", 1, "RNG seed")
		failSpec    = fs.String("fail", "", "chaos schedule: comma-separated [crash:|recover:|slow:]node@time[:factor] events, e.g. node-0-3@20s or crash:node-0-3@20s,recover:node-0-3@40s")
		replayOn    = fs.Bool("replay", false, "at-least-once delivery: replay failed tuple trees from the spout with bounded exponential backoff")
		showAssign  = fs.Bool("assignment", false, "print the task placement")
		adaptiveOn  = fs.Bool("adaptive", false, "close the loop: profile measured demands and rebalance incrementally")
		ctrlIvl     = fs.Duration("control-interval", 0, "adaptive control epoch (default: one metrics window)")
		memoryOn    = fs.Bool("memory", false, "enable the runtime memory model: resident accounting + OOM enforcement (with -adaptive, measured memory replaces declarations)")
		trafficOn   = fs.Bool("traffic", false, "report the measured edge-rate matrix and inter-node tuple fraction (with -adaptive, consolidation rebalances minimize measured network cost)")
		percentiles = fs.Bool("percentiles", false, "latency histograms: print complete-tree latency percentiles and the per-window p99 timeline (in a -matrix failover run, add the failover latency-spike rows)")
		traceEvery  = fs.Int("trace", 0, "sample every Nth spout emission into a tuple trace and print the reconstructed span trees (0 = off)")
		journalOn   = fs.Bool("journal", false, "record control-plane decisions (faults, OOM kills, triggers, rebalances) and print them as JSONL")
		matrixSpec  = fs.String("matrix", "", `run an experiment matrix across the worker pool, e.g. "failover,consolidate × seeds=1..16" (see the package comment for the grammar); "list" lists the experiments`)
		workers     = fs.Int("workers", 0, "worker goroutines for -matrix (0 = all CPUs)")
		shards      = fs.Int("shards", 0, "lane partition: 0 = one lane spanning the cluster, N >= 1 = one lane per rack on up to N workers (output identical for every N >= 1)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration %v is not positive", *duration)
	}
	if *window <= 0 {
		return fmt.Errorf("-window %v is not positive", *window)
	}
	if *ctrlIvl < 0 {
		return fmt.Errorf("-control-interval %v is negative", *ctrlIvl)
	}
	if *traceEvery < 0 {
		return fmt.Errorf("-trace %d is negative", *traceEvery)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d is negative", *shards)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d is negative", *workers)
	}
	if *shards > 0 && (*traceEvery > 0 || *journalOn) {
		return fmt.Errorf("-trace and -journal require the single-threaded kernel (-shards 0)")
	}
	if *matrixSpec != "" {
		// Refuse, by name, the first set flag a matrix run does not read.
		var stray string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "matrix", "workers", "shards", "duration", "window", "seed", "percentiles":
			default:
				if stray == "" {
					stray = f.Name
				}
			}
		})
		if stray != "" {
			return fmt.Errorf("-%s: -matrix runs registered experiments and composes with no other mode flag", stray)
		}
		return runMatrix(w, *matrixSpec, *workers, experiments.Options{
			Duration:      *duration,
			MetricsWindow: *window,
			Seed:          *seed,
			Percentiles:   *percentiles,
			Shards:        *shards,
		})
	}
	if *workers != 0 {
		return fmt.Errorf("-workers only applies to -matrix runs")
	}
	if *ctrlIvl != 0 && !*adaptiveOn {
		return fmt.Errorf("-control-interval only applies to -adaptive runs")
	}

	c, err := loadCluster(*clusterPath)
	if err != nil {
		return err
	}
	topo, err := loadTopology(*topoPath)
	if err != nil {
		return err
	}
	sched, err := pickScheduler(*schedName)
	if err != nil {
		return err
	}

	state := core.NewGlobalState(c)
	a, err := sched.Schedule(topo, c, state)
	if err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	if err := state.Apply(topo, a); err != nil {
		return fmt.Errorf("apply: %w", err)
	}
	if *showAssign {
		fmt.Fprintln(w, a)
	}

	sim, err := simulator.New(c, simulator.Config{
		Duration:          *duration,
		MetricsWindow:     *window,
		Seed:              *seed,
		MemoryModel:       *memoryOn,
		Replay:            *replayOn,
		LatencyHistograms: *percentiles,
		TraceSampleEvery:  *traceEvery,
		Shards:            *shards,
	})
	if err != nil {
		return err
	}
	if err := sim.AddTopology(topo, a); err != nil {
		return err
	}
	var journal *trace.Journal
	if *journalOn {
		journal = trace.NewJournal(0)
		if err := sim.SetJournal(journal); err != nil {
			return err
		}
	}
	if *failSpec != "" {
		schedule, err := faults.ParseSchedule(*failSpec)
		if err != nil {
			return fmt.Errorf("failure spec: %w", err)
		}
		if err := schedule.Apply(sim); err != nil {
			return err
		}
	}

	var (
		result     *simulator.Result
		prof       *adaptive.Profiler
		rebalances []adaptive.RebalanceEvent
	)
	if *adaptiveOn {
		// Replanning always uses the R-Storm distance machinery, whatever
		// scheduler produced the initial placement — so -adaptive also
		// demonstrates the loop repairing a default-even schedule. With
		// -memory the loop additionally measures resident memory and keeps
		// rescheduled tasks under a memory-fill headroom.
		loopCfg := adaptive.LoopConfig{Interval: *ctrlIvl, Journal: journal}
		// With -traffic the imbalance (consolidation) trigger plans against
		// the measured edge-rate matrix instead of ref-node distance.
		loopCfg.Controller.TrafficObjective = *trafficOn
		loop := adaptive.NewLoop(sim, c, core.NewResourceAwareScheduler(), loopCfg)
		if err := loop.Manage(topo, a); err != nil {
			return err
		}
		prof = loop.Controller().Profiler()
		lr, err := loop.Run()
		if err != nil {
			return err
		}
		result = lr.Result
		rebalances = lr.Events
		a = lr.Assignments[topo.Name()]
	} else {
		prof = adaptive.NewProfiler(adaptive.ProfilerConfig{})
		if err := sim.SetObserver(prof); err != nil {
			return err
		}
		result, err = sim.Run()
		if err != nil {
			return err
		}
	}
	printResult(w, topo, a, result, c, *memoryOn)
	printFaults(w, sim.Faults(), result, *replayOn)
	if *adaptiveOn {
		printRebalances(w, rebalances, result)
	}
	printMeasured(w, topo, prof, *memoryOn)
	if *trafficOn {
		printTraffic(w, topo, prof, result)
	}
	if *percentiles {
		printPercentiles(w, topo, result)
	}
	if *traceEvery > 0 {
		printTraces(w, sim.Tracer())
	}
	if *journalOn {
		printJournal(w, journal)
	}
	return nil
}

// runMatrix parses a matrix spec, resolves it against the experiment
// registry, and evaluates it across the orchestrator's worker pool. The
// merged output is deterministic: byte-identical for any -workers value.
// The spec "list" prints the registry instead.
func runMatrix(w io.Writer, spec string, workers int, base experiments.Options) error {
	if spec == "list" {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-10s %s\n           paper: %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return nil
	}
	parsed, err := orchestra.ParseSpec(spec)
	if err != nil {
		return err
	}
	cells, err := experiments.MatrixCells(parsed, base)
	if err != nil {
		return err
	}
	results, err := orchestra.Run(context.Background(), cells, orchestra.Options{Workers: workers})
	if err != nil {
		return err
	}
	fmt.Fprint(w, results.Render())
	if failed := results.Failed(); failed > 0 {
		return fmt.Errorf("%d of %d matrix cells failed", failed, len(results.Cells))
	}
	return nil
}

func loadCluster(path string) (*cluster.Cluster, error) {
	if path == "" {
		return cluster.Emulab12()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cluster.FromYAML(f)
}

func loadTopology(path string) (*topology.Topology, error) {
	if path == "" {
		return workloads.LinearTopology(workloads.NetworkBound)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := topology.ParseSpec(f)
	if err != nil {
		return nil, err
	}
	return spec.Build()
}

func pickScheduler(name string) (core.Scheduler, error) {
	switch name {
	case "r-storm":
		return core.NewResourceAwareScheduler(), nil
	case "default-even":
		return core.EvenScheduler{}, nil
	case "offline-linear":
		return core.OfflineLinearScheduler{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

func printResult(w io.Writer, topo *topology.Topology, a *core.Assignment, result *simulator.Result, c *cluster.Cluster, memoryOn bool) {
	tr := result.Topology(topo.Name())
	fmt.Fprintf(w, "topology    %s (%d tasks, %d components)\n",
		topo.Name(), topo.TotalTasks(), len(topo.Components()))
	fmt.Fprintf(w, "scheduler   %s\n", a.Scheduler)
	fmt.Fprintf(w, "placement   %d nodes, %d workers, network cost %.1f\n",
		len(a.NodesUsed()), a.WorkersUsed(), a.NetworkCost(topo, c))
	fmt.Fprintf(w, "throughput  %.0f tuples/%s (mean after warmup)\n",
		tr.MeanSinkThroughput, result.Window)
	fmt.Fprintf(w, "totals      emitted=%d processed=%d delivered=%d dropped=%d\n",
		tr.TuplesEmitted, tr.TuplesProcessed, tr.TuplesDelivered, result.TuplesDropped)
	fmt.Fprintf(w, "latency     %v mean spout-to-sink\n", tr.MeanLatency)
	fmt.Fprintf(w, "cpu util    %.1f%% mean over used nodes\n", result.MeanUtilizationUsed*100)
	if memoryOn {
		fmt.Fprintf(w, "memory      oom-killed=%d tasks (runtime memory model)\n",
			result.TasksOOMKilled)
	}

	fmt.Fprintln(w)
	fmt.Fprint(w, viz.LineChart(
		fmt.Sprintf("sink throughput per %s window", result.Window),
		[]viz.Series{{Name: topo.Name(), Values: tr.SinkSeries}}, 72, 12))

	var names []string
	for comp := range tr.ComponentSeries {
		names = append(names, comp)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "\nper-component processed totals:")
	for _, comp := range names {
		var total float64
		for _, v := range tr.ComponentSeries[comp] {
			total += v
		}
		fmt.Fprintf(w, "  %-16s %12.0f tuples\n", comp, total)
	}
}

// printFaults lists the chaos events the run actually applied, each
// node's total downtime, and — with replay on — the at-least-once
// re-emission count. Silent when nothing was injected and replay is off,
// keeping fault-free output byte-identical.
func printFaults(w io.Writer, recs []simulator.FaultRecord, result *simulator.Result, replayOn bool) {
	if len(recs) > 0 {
		fmt.Fprintln(w, "\nfaults applied:")
		for _, fr := range recs {
			fmt.Fprintf(w, "  t=%-8v %s %s\n", fr.At, fr.Kind, fr.Node)
		}
		var nodes []cluster.NodeID
		for id := range result.NodeDowntime {
			nodes = append(nodes, id)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		for _, id := range nodes {
			fmt.Fprintf(w, "  downtime %s: %v\n", id, result.NodeDowntime[id])
		}
	}
	if replayOn {
		fmt.Fprintf(w, "\nreplay      %d re-emissions of failed tuple trees (at-least-once)\n",
			result.TuplesReplayed)
	}
}

// printRebalances lists the adaptive loop's mid-run migrations.
func printRebalances(w io.Writer, events []adaptive.RebalanceEvent, result *simulator.Result) {
	fmt.Fprintln(w, "\nadaptive rebalances:")
	if len(events) == 0 {
		fmt.Fprintln(w, "  none (placement already matched measured demands)")
		return
	}
	for _, e := range events {
		fmt.Fprintf(w, "  t=%-8v %-10s trigger=%-10s moved %d tasks\n",
			e.At, e.Topology, e.Trigger, e.Moves)
	}
	fmt.Fprintf(w, "  tuples failed by migration: %d\n", result.TuplesMigrated)
}

// printTraffic renders the measured edge-rate matrix — the traffic the
// network-distance heuristic is a proxy for — and the run's inter-node
// tuple fraction (the quantity a traffic-aware placement minimizes).
func printTraffic(w io.Writer, topo *topology.Topology, prof *adaptive.Profiler, result *simulator.Result) {
	edges := prof.EdgeStats(topo.Name())
	if len(edges) == 0 {
		return
	}
	fmt.Fprintf(w, "\nmeasured edge traffic (EWMA over %d windows):\n", prof.Windows())
	fmt.Fprintf(w, "  %-16s %-16s %10s %12s %9s\n",
		"from", "to", "rate/s", "tuples", "remote")
	for _, e := range edges {
		fmt.Fprintf(w, "  %-16s %-16s %10.1f %12d %8.1f%%\n",
			e.From, e.To, e.RatePerSec, e.Tuples, e.InterNodeFraction()*100)
	}
	if tr := result.Topology(topo.Name()); tr != nil {
		fmt.Fprintf(w, "  inter-node tuple fraction: %.1f%% (%d of %d deliveries crossed nodes)\n",
			tr.InterNodeFraction()*100, tr.TuplesSentRemote, tr.TuplesSent)
	}
}

// printPercentiles renders the latency histograms' roll-up: the whole-run
// complete-tree percentiles per topology plus the per-window p99 timeline
// (the series that exposes a failover latency spike and its recovery).
func printPercentiles(w io.Writer, topo *topology.Topology, result *simulator.Result) {
	tr := result.Topology(topo.Name())
	if tr == nil {
		return
	}
	fmt.Fprintln(w, "\nlatency percentiles (complete-tree, histogram-quantized):")
	fmt.Fprintf(w, "  %-16s %10s %10s %10s %10s\n", "topology", "p50", "p95", "p99", "max")
	fmt.Fprintf(w, "  %-16s %10v %10v %10v %10v\n",
		tr.Name, tr.LatencyP50, tr.LatencyP95, tr.LatencyP99, tr.LatencyMax)
	if len(tr.LatencyP99Series) > 0 {
		fmt.Fprintln(w)
		fmt.Fprint(w, viz.LineChart(
			fmt.Sprintf("p99 latency (ms) per %s window", result.Window),
			[]viz.Series{{Name: tr.Name, Values: tr.LatencyP99Series}}, 72, 12))
	}
}

// printTracesMax caps how many reconstructed span trees the CLI renders;
// the total is always reported.
const printTracesMax = 8

// printTraces renders the sampled tuple traces as indented span trees.
func printTraces(w io.Writer, tracer *trace.Tracer) {
	trees := tracer.Trees()
	fmt.Fprintf(w, "\ntuple traces: %d spans in %d trees (deterministic sampling)\n",
		len(tracer.Spans()), len(trees))
	shown := trees
	if len(shown) > printTracesMax {
		shown = shown[:printTracesMax]
	}
	fmt.Fprint(w, trace.RenderTrees(shown))
	if len(trees) > printTracesMax {
		fmt.Fprintf(w, "  ... %d more trees not shown\n", len(trees)-printTracesMax)
	}
}

// printJournal dumps the decision journal as JSONL, one event per line in
// causal order.
func printJournal(w io.Writer, journal *trace.Journal) {
	fmt.Fprintf(w, "\ndecision journal (%d events, JSONL):\n", journal.Len())
	_ = journal.WriteJSONL(w)
}

// printMeasured renders the metrics tap's per-component summary: declared
// vs measured CPU demand, utilization, queue pressure and NIC egress —
// plus declared vs measured resident memory when the runtime memory model
// is on (without it memory is unmeasured and the columns would be noise).
func printMeasured(w io.Writer, topo *topology.Topology, prof *adaptive.Profiler, memoryOn bool) {
	stats := prof.Stats(topo.Name())
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "\nmeasured per-component demand (EWMA over %d windows):\n", prof.Windows())
	fmt.Fprintf(w, "  %-16s %6s %9s %9s %7s %7s %11s %10s",
		"component", "tasks", "decl-cpu", "meas-cpu", "util", "queue", "egress-mbps", "overflows")
	if memoryOn {
		fmt.Fprintf(w, " %9s %9s", "decl-mem", "meas-mem")
	}
	fmt.Fprintln(w)
	for _, st := range stats {
		comp := topo.Component(st.Component)
		if comp == nil {
			continue
		}
		fmt.Fprintf(w, "  %-16s %6d %9.1f %9.1f %6.1f%% %6.1f%% %11.2f %10d",
			st.Component, st.Tasks, comp.CPULoad, st.CPUPoints,
			st.Utilization*100, st.QueueFill*100, st.EgressMbps, st.Overflows)
		if memoryOn {
			fmt.Fprintf(w, " %9.1f %9.1f", comp.MemoryLoad, st.MemResidentMB)
		}
		fmt.Fprintln(w)
	}
}
