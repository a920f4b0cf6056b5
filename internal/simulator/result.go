package simulator

import (
	"fmt"
	"sort"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/faults"
	"rstorm/internal/metrics"
)

// TopologyResult summarizes one topology's run.
type TopologyResult struct {
	// Name is the topology name; Scheduler the scheduler that placed it.
	Name      string
	Scheduler string
	// SinkSeries is total tuples arriving at sink components per metrics
	// window — the paper's throughput metric (§6.2).
	SinkSeries []float64
	// ComponentSeries is tuples processed per window, per component.
	ComponentSeries map[string][]float64
	// MeanSinkThroughput is the post-warmup mean of SinkSeries.
	MeanSinkThroughput float64
	// TuplesEmitted / TuplesProcessed / TuplesDelivered are end-of-run
	// totals (spout roots, bolt executions, sink arrivals).
	TuplesEmitted   int64
	TuplesProcessed int64
	TuplesDelivered int64
	// TuplesExpired counts sink arrivals past the tuple timeout, which
	// do not count as delivered.
	TuplesExpired int64
	// TuplesSent counts tuple deliveries entering the wire path over the
	// run; TuplesSentRemote is the subset that crossed between nodes.
	// Their ratio is the run's inter-node tuple fraction — the quantity a
	// traffic-aware placement minimizes.
	TuplesSent       int64
	TuplesSentRemote int64
	// MeanLatency is the mean spout-to-sink latency of delivered tuples.
	MeanLatency time.Duration
	// LatencyP50/P95/P99/Max are the complete-tree latency percentiles
	// over the whole run under Config.LatencyHistograms (expired
	// arrivals included), quantized by the histogram's 6.25% buckets.
	// All zero with histograms off.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration
	// LatencyP99Series is the per-metrics-window p99 in milliseconds,
	// aligned with SinkSeries (trailing partial window excluded) — the
	// series that exposes a failover latency spike and its recovery.
	// Nil with histograms off.
	LatencyP99Series []float64
	// NodesUsed is the number of distinct nodes hosting tasks.
	NodesUsed int
	// RecoveryTime measures time-to-recover after the run's first node
	// crash: the interval from the crash until the end of the first full
	// metrics window whose sink throughput reached ≥90% of the pre-crash
	// baseline (the mean of full post-warmup windows before the crash).
	// Zero when no crash occurred or the baseline is not measurable; -1
	// when the topology never recovered within the run.
	RecoveryTime time.Duration
}

// Result is a completed simulation's output.
type Result struct {
	// Duration and Window echo the configuration.
	Duration time.Duration
	Window   time.Duration
	// WarmupWindows is the number of leading windows excluded from means.
	WarmupWindows int
	// Topologies holds per-topology results keyed by name.
	Topologies map[string]*TopologyResult
	// NodeUtilization is each node's CPU utilization in [0,1]: the
	// busy-time-weighted share of declared demand against capacity.
	NodeUtilization map[cluster.NodeID]float64
	// NICUtilization is each node's egress utilization in [0,1].
	NICUtilization map[cluster.NodeID]float64
	// NodesUsed counts nodes hosting at least one task.
	NodesUsed int
	// MeanUtilizationUsed averages NodeUtilization over used nodes —
	// the quantity compared in Fig. 10.
	MeanUtilizationUsed float64
	// TuplesDropped counts tuples abandoned due to node failures and OOM
	// kills (an OOM-killed task's queue drains through the same path).
	TuplesDropped int64
	// TuplesMigrated counts tuples failed out of task queues by the
	// administrative drain path: Reassign migrations (the rebalance
	// analogue of a worker restart) and KillTopology teardowns (eviction).
	TuplesMigrated int64
	// TasksOOMKilled counts executors killed by the runtime memory model
	// (Config.MemoryModel) for exceeding their node's memory capacity.
	// Always zero with the model off.
	TasksOOMKilled int64
	// TuplesReplayed counts spout re-emissions of failed tuple trees under
	// at-least-once replay (Config.Replay); TreesLost counts failed trees
	// abandoned for good — retries exhausted, or the spout died. Both are
	// always zero with replay off.
	TuplesReplayed int64
	TreesLost      int64
	// Faults is the log of fault events actually applied during the run
	// (state transitions only), in virtual-time order. Nil without faults.
	Faults []FaultRecord
	// NodeDowntime is each crashed node's total dead time over the run
	// (still-dead nodes accrue until the end). Nil without crashes.
	NodeDowntime map[cluster.NodeID]time.Duration
}

// InterNodeFraction returns the share of the topology's tuple deliveries
// that crossed between nodes, in [0,1]. Zero when nothing was sent.
func (tr *TopologyResult) InterNodeFraction() float64 {
	if tr.TuplesSent == 0 {
		return 0
	}
	return float64(tr.TuplesSentRemote) / float64(tr.TuplesSent)
}

// Topology returns the named topology's result, or nil.
func (r *Result) Topology(name string) *TopologyResult {
	return r.Topologies[name]
}

// TotalMeanThroughput sums MeanSinkThroughput across topologies, in
// sorted name order so the float sum is bit-stable across runs.
func (r *Result) TotalMeanThroughput() float64 {
	names := make([]string, 0, len(r.Topologies))
	for n := range r.Topologies {
		names = append(names, n)
	}
	sort.Strings(names)
	var sum float64
	for _, n := range names {
		sum += r.Topologies[n].MeanSinkThroughput
	}
	return sum
}

// String renders a one-line summary per topology.
func (r *Result) String() string {
	names := make([]string, 0, len(r.Topologies))
	for n := range r.Topologies {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for i, n := range names {
		tr := r.Topologies[n]
		if i > 0 {
			out += "; "
		}
		out += fmt.Sprintf("%s: %.0f tuples/%s over %d nodes",
			tr.Name, tr.MeanSinkThroughput, r.Window, tr.NodesUsed)
	}
	return out
}

// buildResult assembles the Result after the event loop finishes. All
// aggregation here sums per-lane and per-task counters: integer sums
// commute, so the totals are identical however the work was partitioned.
func (s *Simulation) buildResult() *Result {
	res := &Result{
		Duration:        s.cfg.Duration,
		Window:          s.cfg.MetricsWindow,
		WarmupWindows:   warmupWindows,
		Topologies:      make(map[string]*TopologyResult, len(s.runs)),
		NodeUtilization: make(map[cluster.NodeID]float64, len(s.order)),
		NICUtilization:  make(map[cluster.NodeID]float64, len(s.order)),
	}
	for _, ln := range s.lanes {
		res.TuplesDropped += ln.dropped
		res.TuplesMigrated += ln.migrated
		res.TasksOOMKilled += ln.oomKilled
		res.TuplesReplayed += ln.replayed
		res.TreesLost += ln.lostTrees
	}
	if len(s.faultLog) > 0 {
		res.Faults = make([]FaultRecord, len(s.faultLog))
		copy(res.Faults, s.faultLog)
	}
	// firstCrash drives per-topology time-to-recover; the fault log is in
	// virtual-time order, so the first Crash entry is the earliest.
	firstCrash := time.Duration(-1)
	for _, fr := range s.faultLog {
		if fr.Kind == faults.Crash {
			firstCrash = fr.At
			break
		}
	}

	for _, run := range s.runs {
		tr := &TopologyResult{
			Name:            run.topo.Name(),
			Scheduler:       run.assignment.Scheduler,
			ComponentSeries: make(map[string][]float64),
			NodesUsed:       len(run.assignment.NodesUsed()),
		}
		var latSum time.Duration
		var latN int64
		for _, st := range run.ordered {
			tr.TuplesEmitted += st.totEmitted
			tr.TuplesProcessed += st.totProcessed
			tr.TuplesDelivered += st.totDelivered
			tr.TuplesExpired += st.totExpired
			tr.TuplesSent += st.totSent
			tr.TuplesSentRemote += st.totSentRemote
			latSum += st.totLatSum
			latN += st.totLatN
		}
		// The flushes built the series. Bucket values are integer tuple
		// counts, exact in float64, so the order tasks fold in does not
		// matter. A component no task of which ever executed a tuple
		// reports no series.
		tr.SinkSeries = run.sinkSeries
		tr.MeanSinkThroughput = metrics.MeanTail(tr.SinkSeries, warmupWindows)
		for _, st := range run.ordered {
			if st.totProcessed > 0 {
				tr.ComponentSeries[st.comp.Name] = run.compSeries[st.comp.Name]
			}
		}
		if latN > 0 {
			tr.MeanLatency = latSum / time.Duration(latN)
		}
		if run.cumHist != nil {
			sum := run.cumHist.Summarize()
			tr.LatencyP50 = sum.P50
			tr.LatencyP95 = sum.P95
			tr.LatencyP99 = sum.P99
			tr.LatencyMax = sum.Max
			tr.LatencyP99Series = make([]float64, len(run.latP99))
			copy(tr.LatencyP99Series, run.latP99)
		}
		if firstCrash >= 0 {
			tr.RecoveryTime = recoveryTime(tr.SinkSeries, firstCrash,
				s.cfg.MetricsWindow, warmupWindows)
		}
		res.Topologies[tr.Name] = tr
	}

	var utilSum float64
	for _, id := range s.order {
		n := s.nodes[id]
		util := 0.0
		if n.spec.Capacity.CPU > 0 {
			// Current residents contribute the busy time they accrued
			// here, the window still open at Duration included; work done
			// before an inbound migration was credited to the previous
			// host (departedWeighted) when the task moved.
			for _, t := range n.tasks {
				busy := t.uncredited + t.winBusy
				util += float64(busy) / float64(s.cfg.Duration) *
					t.comp.EffectiveCPUPoints() / n.spec.Capacity.CPU
			}
			util += n.departedWeighted / float64(s.cfg.Duration) / n.spec.Capacity.CPU
			if util > 1 {
				util = 1
			}
		}
		res.NodeUtilization[id] = util
		res.NICUtilization[id] = n.nic.busy.Utilization(s.cfg.Duration)
		if n.everHosted {
			res.NodesUsed++
			utilSum += util
		}
	}
	if res.NodesUsed > 0 {
		res.MeanUtilizationUsed = utilSum / float64(res.NodesUsed)
	}
	for _, id := range s.order {
		n := s.nodes[id]
		down := n.downtime
		if n.dead {
			down += s.cfg.Duration - n.crashedAt
		}
		if down > 0 {
			if res.NodeDowntime == nil {
				res.NodeDowntime = make(map[cluster.NodeID]time.Duration)
			}
			res.NodeDowntime[id] = down
		}
	}
	return res
}

// recoveryTime computes time-to-recover from a sink-throughput series: the
// interval from crashAt until the end of the first fully-post-crash window
// whose throughput reached ≥90% of the pre-crash baseline. Returns 0 when
// no full post-warmup window precedes the crash (baseline unmeasurable)
// and -1 when no window recovered before the run ended.
func recoveryTime(series []float64, crashAt, window time.Duration, warmup int) time.Duration {
	crashWin := int(crashAt / window) // first window overlapping the crash
	if crashWin <= warmup {
		return 0
	}
	var baseline float64
	n := 0
	for i := warmup; i < crashWin && i < len(series); i++ {
		baseline += series[i]
		n++
	}
	if n == 0 || baseline <= 0 {
		return 0
	}
	baseline /= float64(n)
	// Scan from the first window that starts at/after the crash: the
	// window containing a mid-window crash is partially healthy and would
	// read as spuriously recovered.
	start := crashWin
	if crashAt%window != 0 {
		start++
	}
	for i := start; i < len(series); i++ {
		if series[i] >= 0.9*baseline {
			return time.Duration(i+1)*window - crashAt
		}
	}
	return -1
}
