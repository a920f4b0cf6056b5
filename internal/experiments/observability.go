package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"time"

	"rstorm/internal/adaptive"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
)

// traceSampleEvery is the observability experiment's deterministic
// sampling stride: every 17th spout emission carries a trace context.
const traceSampleEvery = 17

// Observability regenerates the zero-perturbation claim of DESIGN.md §8:
// the same chaos scenario run twice — once bare, once with the full
// observability layer (latency histograms, sampled tracing, decision
// journal) — must produce identical throughput, and the layer's own
// outputs must be deterministic. The report columns are "default" = the
// bare run and "r-storm" = the instrumented run: the first rows must
// agree exactly (observation does not perturb the experiment), and the
// digest rows pin the journal and span-tree bytes so the golden-diff
// harness catches any nondeterminism in the trace layer itself.
func Observability() Experiment {
	return Experiment{
		ID:    "observability",
		Title: "Observability layer: zero perturbation, deterministic traces",
		PaperClaim: "(beyond the paper: latency histograms, tuple tracing and the decision " +
			"journal observe a chaos run without changing it — identical throughput with " +
			"the layer on, and byte-stable trace output for a fixed seed)",
		Run: runObservability,
	}
}

// observedOutcome is one chaos run plus whatever the observability layer
// captured (zero values for the bare run).
type observedOutcome struct {
	result    *simulator.Result
	spans     int
	trees     int
	journaled int
	// jsonlDigest and treeDigest are FNV-32a digests of the journal's
	// JSONL export and the rendered span trees.
	jsonlDigest float64
	treeDigest  float64
}

// runObservedChaos executes the failover chaos scenario under the
// adaptive loop, optionally with the full observability layer attached.
func runObservedChaos(o Options, observed bool) (*observedOutcome, error) {
	c, err := emulab12()
	if err != nil {
		return nil, err
	}
	topo, err := chainTopology()
	if err != nil {
		return nil, err
	}
	// Options.Shards is deliberately not threaded here: this experiment
	// attaches the decision journal and tuple tracer, which require the
	// one-lane partition (simulator.Config.Shards == 0).
	cfg := simulator.Config{
		Duration:      o.Duration,
		MetricsWindow: failoverWindow,
		Seed:          o.Seed,
		Replay:        true,
	}
	if observed {
		cfg.LatencyHistograms = true
		cfg.TraceSampleEvery = traceSampleEvery
	}

	sched := core.NewResourceAwareScheduler()
	sim, assignments, err := load(c, []*topology.Topology{topo}, sched, cfg)
	if err != nil {
		return nil, err
	}
	a := assignments[topo.Name()]
	victim := busiestNode(topo, a)
	schedule := faults.Schedule{
		{Kind: faults.Crash, Node: victim, At: o.Duration / 3},
		{Kind: faults.Recover, Node: victim, At: 2 * o.Duration / 3},
	}
	if err := schedule.Apply(sim); err != nil {
		return nil, err
	}
	var journal *trace.Journal
	loopCfg := adaptive.LoopConfig{FlapDamping: failoverFlapDamping}
	if observed {
		journal = trace.NewJournal(0)
		if err := sim.SetJournal(journal); err != nil {
			return nil, err
		}
		loopCfg.Journal = journal
	}
	loop := adaptive.NewLoop(sim, c, sched, loopCfg)
	if err := loop.Manage(topo, a); err != nil {
		return nil, err
	}
	lr, err := loop.Run()
	if err != nil {
		return nil, err
	}
	out := &observedOutcome{result: lr.Result}
	if observed {
		tracer := sim.Tracer()
		trees := tracer.Trees()
		out.spans = len(tracer.Spans())
		out.trees = len(trees)
		out.journaled = journal.Len()
		var jsonl strings.Builder
		if err := journal.WriteJSONL(&jsonl); err != nil {
			return nil, err
		}
		out.jsonlDigest = fnvDigest(jsonl.String())
		out.treeDigest = fnvDigest(trace.RenderTrees(trees))
	}
	return out, nil
}

func runObservability(o Options) (*Report, error) {
	o = o.withDefaults()
	bare, err := runObservedChaos(o, false)
	if err != nil {
		return nil, fmt.Errorf("observability bare: %w", err)
	}
	full, err := runObservedChaos(o, true)
	if err != nil {
		return nil, fmt.Errorf("observability instrumented: %w", err)
	}

	name := "chain"
	bareTR := bare.result.Topology(name)
	fullTR := full.result.Topology(name)
	unit := fmt.Sprintf("throughput (tuples/%s)", failoverWindow)
	return &Report{
		ID:    "observability",
		Title: "Observability layer: zero perturbation, deterministic traces",
		PaperClaim: "identical throughput with the layer on; trace and journal " +
			"output byte-stable for a fixed seed",
		Window: failoverWindow,
		Series: map[string][]float64{
			"bare":         bareTR.SinkSeries,
			"instrumented": fullTR.SinkSeries,
		},
		Rows: []Row{
			{
				// Must be exactly equal: observation does not perturb.
				Label:    unit + ": bare vs instrumented",
				Baseline: bareTR.MeanSinkThroughput,
				RStorm:   fullTR.MeanSinkThroughput,
			},
			{
				Label:    "tuples delivered: bare vs instrumented",
				Baseline: float64(bareTR.TuplesDelivered),
				RStorm:   float64(fullTR.TuplesDelivered),
			},
			{
				Label:    "mean latency (ms): bare vs instrumented",
				Baseline: float64(bareTR.MeanLatency) / float64(time.Millisecond),
				RStorm:   float64(fullTR.MeanLatency) / float64(time.Millisecond),
			},
			{
				// Only the instrumented run can see its own tail.
				Label:  "p99 latency (ms), histogram-quantized",
				RStorm: float64(fullTR.LatencyP99) / float64(time.Millisecond),
			},
			{
				Label:  fmt.Sprintf("spans recorded (1-in-%d sampling)", traceSampleEvery),
				RStorm: float64(full.spans),
			},
			{
				Label:  "span trees reconstructed",
				RStorm: float64(full.trees),
			},
			{
				Label:  "journal events (loop + simulator)",
				RStorm: float64(full.journaled),
			},
			{
				Label:  "journal JSONL digest (fnv32a)",
				RStorm: full.jsonlDigest,
			},
			{
				Label:  "span-tree render digest (fnv32a)",
				RStorm: full.treeDigest,
			},
		},
	}, nil
}

// fnvDigest hashes a string with FNV-32a; the 32-bit result is exactly
// representable as a float64, so it can ride in a report Row.
func fnvDigest(s string) float64 {
	h := fnv.New32a()
	_, _ = io.WriteString(h, s)
	return float64(h.Sum32())
}
