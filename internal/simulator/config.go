// Package simulator executes scheduled Storm topologies on a discrete-event
// simulation of the paper's testbed. It models the mechanisms the
// evaluation (§6) actually measures:
//
//   - Executors process one tuple at a time; per-tuple service time is the
//     component's profile cost stretched by the host node's CPU
//     overcommit factor (soft-constraint degradation, §3).
//   - Spouts are closed-loop with a max-pending window over tuple trees,
//     which is Storm's acking flow control: end-to-end latency therefore
//     throttles throughput, so colocation pays off for network-bound
//     topologies.
//   - Inter-node transfers consume NIC bandwidth through a bounded FIFO
//     egress queue; intra-node hand-offs do not. Latency follows the
//     four-level hierarchy of §4.
//   - Bounded queues everywhere make backpressure propagate: one
//     overloaded task throttles the whole topology (the Fig. 9c / Fig. 13
//     collapse).
//
// Simplifications (documented in DESIGN.md): ack completion notification is
// free (no acker executors), and CPU contention uses a static
// processor-sharing slowdown per node — driven by the components' *true*
// demand (ExecProfile.CPUPoints, defaulting to the declared load) and
// refrozen at Reassign epoch boundaries — rather than instantaneous
// sharing. An optional Observer taps per-task runtime metrics each window
// for the adaptive control loop (internal/adaptive).
package simulator

import (
	"fmt"
	"time"
)

// Config controls a simulation run.
type Config struct {
	// Duration is the simulated run length. The paper runs topologies
	// for 15 minutes; simulations reproduce the same steady state in
	// less virtual time. Default 60s.
	Duration time.Duration
	// MetricsWindow is the throughput bucket size. The paper reports
	// tuples per 10 s. Default 10s. Every window boundary flushes the
	// window's counters into the Result's series, node utilization and
	// any observer's samples (observer.go).
	MetricsWindow time.Duration
	// TupleTimeout is Storm's topology.message.timeout.secs: a tuple
	// arriving at a sink later than this after its spout emit does not
	// count as delivered (it would have been failed and replayed).
	// Under heavy overload end-to-end latency exceeds the timeout and
	// measured throughput collapses toward zero, which is the paper's
	// Fig. 13 Processing-topology behaviour. Zero disables timeouts.
	TupleTimeout time.Duration
	// Seed seeds every spout's deterministic key stream. Default 1.
	Seed int64
	// Replay enables at-least-once delivery (Storm's acking contract,
	// DESIGN.md §7): a tuple tree failed by a crash or queue drain
	// re-emits its root from the spout — on the credit it already holds —
	// after an exponential backoff (replayBackoff << attempt), up to
	// replayMaxRetries times, instead of being dropped for good. Off by
	// default: with replay unset, runs are byte-identical to the
	// drop-on-failure simulator.
	Replay bool
	// MemoryModel enables the runtime memory model (DESIGN.md §4): each
	// task's resident memory — queue-resident tuple bytes plus its
	// (possibly growing) working set per ExecProfile — is accounted
	// online, and a node whose residents exceed Capacity.MemoryMB
	// OOM-kills its worst offender at each metrics-window boundary.
	// Off by default: with the model unset, runs are byte-identical to
	// the memory-blind simulator.
	MemoryModel bool
	// LatencyHistograms enables per-sink-task log-bucketed latency
	// histograms (DESIGN.md §8): complete-tree spout-to-sink latency is
	// recorded on the hot path (integer adds, no allocation), window
	// summaries land in TaskSample.Latency, and per-topology
	// p50/p95/p99 roll up into the Result. Off by default: with
	// histograms unset, runs are byte-identical to the unmeasured
	// simulator.
	LatencyHistograms bool
	// TraceSampleEvery samples every Nth spout root emission into the
	// tuple tracer (DESIGN.md §8): the sampled tree carries a trace
	// context through ack-tree propagation and every hop records a
	// queue-wait/service/network span. Sampling is a deterministic
	// counter, not the RNG, so traced runs stay byte-identical to
	// untraced ones everywhere outside the tracer itself. The tracer keeps
	// the latest trace.DefaultMaxSpans spans. Zero (the default) disables
	// tracing.
	TraceSampleEvery int
	// Shards chooses the lane partition of the event loop (DESIGN.md
	// §11). Zero (the default) runs one lane spanning the cluster, on one
	// worker: the paper's model, in which acks and completions never
	// cross a lane. Any value >= 1 runs one lane per rack, advanced in
	// inter-rack-latency lookahead windows on min(Shards, racks) worker
	// goroutines; cross-rack ack and completion hand-offs then pay the
	// inter-rack latency, so results differ slightly from Shards == 0.
	// Results are byte-identical for every Shards >= 1 (the partition
	// depends only on the cluster). Shards >= 1 is incompatible with
	// TraceSampleEvery and with an attached decision journal, which assume
	// a single globally-ordered event loop.
	Shards int
}

// Queue, flow-control, link and replay parameters no caller varies.
const (
	// queueCapacity bounds each task's input queue (tuples).
	queueCapacity = 128
	// maxSpoutPending caps incomplete tuple trees per spout task (Storm's
	// topology.max.spout.pending) unless the topology declares its own.
	maxSpoutPending = 64
	// warmupWindows leading windows are dropped from mean-throughput
	// summaries, matching the paper's convergence wait (§6.2).
	warmupWindows = 1
	// nicQueueCapacity bounds each node's egress queue (transfers), and
	// nicWindow caps the NIC's transfers awaiting remote acceptance,
	// approximating TCP windowing. A rack uplink has four times both.
	nicQueueCapacity = 512
	nicWindow        = 64
	// replayMaxRetries bounds re-emissions per tuple tree under
	// Config.Replay (attempts beyond the original emission); attempt n
	// waits replayBackoff << n.
	replayMaxRetries = 3
	replayBackoff    = 50 * time.Millisecond
)

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.MetricsWindow == 0 {
		c.MetricsWindow = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// maxWindows bounds Duration / MetricsWindow. Every window boundary is a
// flush over every task, so a window tiny against the duration (1 ns over
// 10 ms is 10^7 flushes) would run for minutes before printing anything.
const maxWindows = 1_000_000

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("duration %v, want > 0", c.Duration)
	}
	if c.MetricsWindow <= 0 {
		return fmt.Errorf("metrics window %v, want > 0", c.MetricsWindow)
	}
	if c.MetricsWindow > c.Duration {
		return fmt.Errorf("metrics window %v exceeds duration %v", c.MetricsWindow, c.Duration)
	}
	if n := int64(c.Duration / c.MetricsWindow); n > maxWindows {
		return fmt.Errorf("metrics window %v over duration %v makes %d windows, want at most %d",
			c.MetricsWindow, c.Duration, n, maxWindows)
	}
	if c.TupleTimeout < 0 {
		return fmt.Errorf("tuple timeout %v, want >= 0", c.TupleTimeout)
	}
	if c.TraceSampleEvery < 0 {
		return fmt.Errorf("trace sample every %d, want >= 0", c.TraceSampleEvery)
	}
	if c.Shards < 0 {
		return fmt.Errorf("shards %d, want >= 0", c.Shards)
	}
	if c.Shards > 0 && c.TraceSampleEvery > 0 {
		return fmt.Errorf("tuple tracing requires the single-threaded kernel (shards = 0)")
	}
	return nil
}
