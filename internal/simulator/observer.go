package simulator

import (
	"fmt"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/trace"
)

// TaskSample is one task's runtime measurements over one metrics window —
// the feed of the adaptive scheduling loop (internal/adaptive). Samples are
// accumulated in plain per-task counters on the tuple hot path (a handful
// of integer adds, no allocation) and materialized only at window
// boundaries, into a buffer the Simulation reuses across flushes.
type TaskSample struct {
	// Topology, Component, TaskID and Node identify the task and where it
	// currently runs (placements change across Reassign epochs).
	Topology  string
	Component string
	TaskID    int
	Node      cluster.NodeID
	// Spout and Sink mirror the task's role; Dead marks tasks lost to a
	// node failure (their counters stop moving). NodeDead marks the host
	// node itself as currently down, letting observers distinguish a task
	// killed by a crash (restartable elsewhere once detected) from one the
	// OOM killer took on a healthy node.
	Spout    bool
	Sink     bool
	Dead     bool
	NodeDead bool

	// Window is the flush index (0-based); WindowStart/WindowEnd bound the
	// sampled interval in virtual time. FullWindow is the configured
	// metrics window: an interval shorter than it is a partial flush (the
	// slice before a placement change, or the tail at Duration). Like
	// QueueCap it repeats a configured bound, so observers need no
	// configuration of their own to tell the two apart.
	Window      int
	WindowStart time.Duration
	WindowEnd   time.Duration
	FullWindow  time.Duration

	// Busy is the (overcommit-stretched) service time completed in the
	// window; Busy over the window length is the executor's utilization.
	Busy time.Duration
	// Slowdown is the host node's CPU overcommit stretch factor at flush
	// time (>= 1), letting observers de-stretch Busy into real compute.
	Slowdown float64
	// NodeCPUCapacity is the host node's CPU capacity in points.
	NodeCPUCapacity float64

	// Processed counts bolt executions; Emitted counts spout root tuples.
	Processed int64
	Emitted   int64

	// QueueLen and QueueCap snapshot the input queue at flush time;
	// Overflows counts enqueue attempts during the window that found the
	// queue full and parked the producer (backpressure events).
	QueueLen  int
	QueueCap  int
	Overflows int64

	// BytesOut is the payload handed to this node's NIC by this task
	// during the window — its share of egress pressure.
	BytesOut int64

	// ResidentMemMB is the task's resident memory at flush time under the
	// runtime memory model (working set plus queued payload, memory.go);
	// NodeMemCapacityMB is the host node's memory capacity. Both are zero
	// when Config.MemoryModel is off: memory is then unmeasured and the
	// declared loads stay authoritative.
	ResidentMemMB     float64
	NodeMemCapacityMB float64

	// LatencySum / LatencyN accumulate spout-to-arrival latency for
	// tuples reaching this task when it is a sink (expired arrivals
	// included: the controller wants the truth, not the SLA view).
	LatencySum time.Duration
	LatencyN   int64

	// Latency is the window's complete-tree latency distribution digest
	// for sink tasks under Config.LatencyHistograms — the percentile
	// substrate SLO-aware scheduling reads. Zero-valued (Count == 0)
	// with histograms off or for non-sink tasks. A value copy: safe to
	// keep even though the sample slice itself is reused.
	Latency trace.Summary

	// Edges are this task's outgoing per-edge tuple counts for the window
	// — the measured traffic the paper's network-distance heuristic is a
	// proxy for. Like the sample slice itself, the backing array is owned
	// by the Simulation and reused across flushes: observers must copy
	// what they keep. Edges with zero traffic this window are included
	// (the slice is positionally stable across windows).
	Edges []EdgeRate
}

// EdgeRate is one delivery edge's measured traffic over a metrics window.
type EdgeRate struct {
	// DestTaskID / DestComponent identify the consumer.
	DestTaskID    int
	DestComponent string
	// Tuples is the number of tuple deliveries on this edge during the
	// window (dropped deliveries included: traffic is offered load).
	Tuples int64
	// Remote reports whether the edge crossed nodes at flush time. A
	// mid-window Reassign flushes the partial window before any task
	// moves, so the classification matches the placement the counted
	// traffic actually traversed.
	Remote bool
}

// Utilization returns the executor's busy fraction over the window.
func (ts TaskSample) Utilization() float64 {
	if w := ts.WindowEnd - ts.WindowStart; w > 0 {
		u := float64(ts.Busy) / float64(w)
		if u > 1 {
			u = 1
		}
		return u
	}
	return 0
}

// QueueFill returns the input queue's fill fraction at flush time.
func (ts TaskSample) QueueFill() float64 {
	if ts.QueueCap <= 0 {
		return 0
	}
	return float64(ts.QueueLen) / float64(ts.QueueCap)
}

// Observer receives every task's sample at each metrics-window boundary.
// The samples slice (and its backing array) is owned by the Simulation and
// reused across flushes: observers must copy anything they keep. OnWindow
// runs inside the event loop, in deterministic task order (topology
// registration order, then dense task ID), and must not call back into the
// Simulation.
type Observer interface {
	OnWindow(samples []TaskSample)
}

// SetObserver attaches the metrics tap. It must be called before the
// simulation starts; passing nil detaches it.
func (s *Simulation) SetObserver(o Observer) error {
	if s.started {
		return fmt.Errorf("simulation already started")
	}
	s.observer = o
	return nil
}

// flushPartialWindow flushes the counters accumulated since the last
// flush, if any: the tail window Finish must not drop when the duration
// is not a multiple of the metrics window, and the slice of a window
// before a placement change, which must be attributed to the placement it
// ran under. A no-op at an exact window boundary (nothing has
// accumulated).
func (s *Simulation) flushPartialWindow() {
	if now := s.now(); now > s.lastFlush {
		s.flushWindow(now)
	}
}

// flushWindow is the run's one window ledger: it closes [s.lastFlush, now)
// for every task. Each task's sink arrivals and bolt executions fold into
// its run's series at bucket lastFlush / MetricsWindow (partial flushes of
// one window land in one bucket; a trailing partial window has none), and
// its busy time into uncredited, the busy time not yet credited to a host.
// An attached observer gets the window's samples, and latency histograms
// roll up: per-task window digests into the samples, task histograms
// merged into the run's window and cumulative histograms, and the
// per-window p99 series closed at full window boundaries (partial flushes
// accumulate without closing, so the series stays aligned with the
// throughput series).
func (s *Simulation) flushWindow(now time.Duration) {
	observed := s.observer != nil
	buf := s.sampleBuf[:0]
	start := s.lastFlush
	bucket := int(start / s.cfg.MetricsWindow)
	memModel := s.cfg.MemoryModel
	for _, run := range s.runs {
		name := run.topo.Name()
		for _, st := range run.ordered {
			if bucket < len(run.sinkSeries) {
				run.sinkSeries[bucket] += float64(st.winDelivered)
				if st.winProcessed > 0 {
					run.compSeries[st.comp.Name][bucket] += float64(st.winProcessed)
				}
			}
			st.uncredited += st.winBusy
			if observed {
				sample := TaskSample{
					Topology:        name,
					Component:       st.comp.Name,
					TaskID:          st.task.ID,
					Node:            st.node.id,
					Spout:           st.isSpout == 1,
					Sink:            st.isSink,
					Dead:            st.dead,
					NodeDead:        st.node.dead,
					Window:          s.windowIdx,
					WindowStart:     start,
					WindowEnd:       now,
					FullWindow:      s.cfg.MetricsWindow,
					Busy:            st.winBusy,
					Slowdown:        st.node.slowdown,
					NodeCPUCapacity: st.node.spec.Capacity.CPU,
					Processed:       st.winProcessed,
					Emitted:         st.winEmitted,
					QueueLen:        st.queue.len(),
					QueueCap:        queueCapacity,
					Overflows:       st.winOverflows,
					BytesOut:        st.winBytesOut,
					LatencySum:      st.winLatSum,
					LatencyN:        st.winLatN,
				}
				if memModel {
					sample.ResidentMemMB = s.residentMemMB(st)
					sample.NodeMemCapacityMB = st.node.spec.Capacity.MemoryMB
				}
				if st.hist != nil {
					sample.Latency = st.hist.Summarize()
				}
				if len(st.edges) > 0 {
					sample.Edges = st.materializeEdges()
				}
				buf = append(buf, sample)
			}
			if st.hist != nil {
				run.winHist.Merge(st.hist)
				run.cumHist.Merge(st.hist)
				st.hist.Reset()
			}
			st.resetWindow()
		}
		if run.winHist != nil {
			for time.Duration(len(run.latP99)+1)*s.cfg.MetricsWindow <= now {
				run.latP99 = append(run.latP99,
					float64(run.winHist.Quantile(0.99))/float64(time.Millisecond))
				run.winHist.Reset()
			}
		}
	}
	if observed {
		s.sampleBuf = buf
		s.observer.OnWindow(buf)
	}
	s.windowIdx++
	s.lastFlush = now
}

// materializeEdges snapshots the task's per-edge counters into its
// reusable EdgeRate buffer for the observer. Remote-ness is classified
// against current placements, which match the flushed interval: Reassign
// flushes the partial window before moving anything.
func (t *simTask) materializeEdges() []EdgeRate {
	buf := t.edgeBuf[:0]
	for _, e := range t.edges {
		buf = append(buf, EdgeRate{
			DestTaskID:    e.dest.task.ID,
			DestComponent: e.dest.comp.Name,
			Tuples:        e.tuples,
			Remote:        e.dest.node != t.node,
		})
	}
	t.edgeBuf = buf
	return buf
}

// resetWindow clears the per-window counters after a flush.
func (t *simTask) resetWindow() {
	t.winBusy = 0
	t.winProcessed = 0
	t.winDelivered = 0
	t.winEmitted = 0
	t.winOverflows = 0
	t.winBytesOut = 0
	t.winLatSum = 0
	t.winLatN = 0
	for _, e := range t.edges {
		e.tuples = 0
	}
}
