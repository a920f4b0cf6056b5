// Package adaptive closes R-Storm's scheduling loop. The paper schedules
// from user-declared resource demands and never looks back; this package
// adds the feedback path the follow-on literature (DRS, Fu et al.;
// A2C-based Storm scheduling, Dong et al.) shows is where further wins
// live: a runtime metrics tap on the simulator feeds a demand profiler
// that replaces declared CPU/bandwidth (and, under the runtime memory
// model, memory) demands with measured ones, a feedback controller
// detects hotspots, memory pressure, and imbalance with hysteresis, and
// an incremental reschedule (internal/core) migrates only the offending
// tasks. DESIGN.md documents the estimator and the control policy.
package adaptive

import (
	"sync"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/resource"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// alpha is the EWMA smoothing factor applied to each new window.
const alpha = 0.5

// ProfilerConfig tunes demand estimation.
type ProfilerConfig struct {
	// MemLookaheadWindows projects the measured memory demand forward by
	// this many (full metrics) windows of EWMA growth: a task whose state
	// is still growing at plan time must be placed for where it is
	// heading, not where it was sampled, or the hard axis is re-violated
	// one growth window after the migration. Default 4.
	//
	// Memory measurement itself needs no switch: samples carry resident
	// memory exactly when the simulator's runtime memory model is on, and
	// the profiler replaces declared memory with measurements as soon as
	// it has seen any — a memory trigger must never replan against the
	// very declarations it just caught lying. Without the model, samples
	// are memory-blind and declarations stay authoritative.
	MemLookaheadWindows int
}

func (c ProfilerConfig) withDefaults() ProfilerConfig {
	if c.MemLookaheadWindows <= 0 {
		c.MemLookaheadWindows = 4
	}
	return c
}

// ComponentStats is the profiler's rolling estimate for one component.
// All per-task quantities are means over the component's live tasks.
type ComponentStats struct {
	Topology  string `json:"topology"`
	Component string `json:"component"`
	Tasks     int    `json:"tasks"`
	// Windows counts flushes folded into the estimates.
	Windows int `json:"windows"`
	// Utilization is the EWMA mean executor busy fraction in [0,1];
	// MaxUtilization tracks the busiest task, which is what hotspot
	// detection keys on (one saturated task bottlenecks the pipeline
	// even when its siblings idle).
	Utilization    float64 `json:"utilization"`
	MaxUtilization float64 `json:"maxUtilization"`
	// CPUPoints is the EWMA measured per-task CPU demand in points. On an
	// overcommitted node the per-task shares are attributed from the
	// node's stretch factor, so a saturated component's true demand is
	// recovered exactly (DESIGN.md).
	CPUPoints float64 `json:"cpuPoints"`
	// MaxSlowdown is the worst CPU overcommit stretch among the
	// component's host nodes in the latest window (not smoothed: the
	// stretch is constant between rebalances). 1 means no contention —
	// and a saturated component on uncontended nodes is pipeline-bound,
	// not placement-bound, so migration cannot help it.
	MaxSlowdown float64 `json:"maxSlowdown"`
	// EgressMbps is the EWMA per-task NIC egress rate.
	EgressMbps float64 `json:"egressMbps"`
	// MemResidentMB is the EWMA *max* per-task resident memory in MB as
	// measured by the simulator's runtime memory model — max rather than
	// mean because memory is the hard axis, and a placement must fit the
	// component's worst task. Zero when the memory model is off.
	MemResidentMB float64 `json:"memResidentMb"`
	// MemGrowthMB is the EWMA per-window increase of the max resident
	// memory — the state-growth slope used to project demand forward.
	MemGrowthMB float64 `json:"memGrowthMb"`
	// QueueFill is the EWMA input-queue fill fraction at window ends.
	QueueFill float64 `json:"queueFill"`
	// Overflows is the cumulative count of enqueue attempts that hit a
	// full queue (backpressure events).
	Overflows int64 `json:"overflows"`
	// MeanLatency is the EWMA spout-to-sink latency (sink components).
	MeanLatency time.Duration `json:"meanLatencyNs"`
}

type compKey struct{ topo, comp string }

// edgeKey identifies one directed component pair of one topology.
type edgeKey struct{ topo, from, to string }

// EdgeStats is the profiler's rolling traffic estimate for one directed
// component pair — the component-pair traffic matrix entry the
// network-cost objective consumes. Rates come from the simulator's
// per-wire tuple counters (TaskSample.Edges), folded per window.
type EdgeStats struct {
	Topology string `json:"topology"`
	From     string `json:"from"`
	To       string `json:"to"`
	// RatePerSec is the EWMA tuples/sec summed across every task pair of
	// the component pair.
	RatePerSec float64 `json:"ratePerSec"`
	// Tuples / RemoteTuples are cumulative delivery counts over the run,
	// and the subset whose edge crossed nodes at flush time. Their ratio
	// is the edge's inter-node tuple fraction.
	Tuples       int64 `json:"tuples"`
	RemoteTuples int64 `json:"remoteTuples"`
	// Windows counts flushes folded into the rate.
	Windows int `json:"windows"`
}

// InterNodeFraction returns the share of this edge's tuples that crossed
// between nodes, in [0,1].
func (e EdgeStats) InterNodeFraction() float64 {
	if e.Tuples == 0 {
		return 0
	}
	return float64(e.RemoteTuples) / float64(e.Tuples)
}

// edgesInterNodeFraction aggregates a topology's edges into its overall
// inter-node tuple fraction — the ControllerStatus counterpart of
// TopologyResult.InterNodeFraction, computed from the profiler's view.
func edgesInterNodeFraction(edges []EdgeStats) float64 {
	var sent, remote int64
	for _, e := range edges {
		sent += e.Tuples
		remote += e.RemoteTuples
	}
	if sent == 0 {
		return 0
	}
	return float64(remote) / float64(sent)
}

// Profiler folds per-window task samples into per-component demand
// estimates. It implements simulator.Observer; the simulation feeding
// OnWindow is single-threaded, but estimates may be read from other
// goroutines (Controller.Status is operator tooling), so state access is
// mutex-guarded.
type Profiler struct {
	mu      sync.Mutex
	cfg     ProfilerConfig
	stats   map[compKey]*ComponentStats
	order   []compKey // first-seen order, for deterministic iteration
	windows int

	// dead records tasks observed dead (node failures), per topology —
	// the replanner freezes these in place, since there is no executor
	// left to migrate.
	dead map[string]map[int]bool

	// crashed is the subset of dead tasks whose host node was itself dead
	// when the task was sampled — killed by a node crash rather than the
	// OOM killer. These are restartable: the failover trigger re-places
	// them on live capacity. Marks persist through node recovery (the
	// executor stays gone until a failover round restarts it) and clear
	// on the task's next live sample.
	crashed map[string]map[int]bool

	// edges is the EWMA component-pair traffic matrix, fed by the
	// simulator's per-wire counters; edgeOrder is first-seen order for
	// deterministic iteration.
	edges     map[edgeKey]*EdgeStats
	edgeOrder []edgeKey

	// nodeBusy is scratch for per-node busy aggregation, reused across
	// flushes.
	nodeBusy map[cluster.NodeID]time.Duration

	// prevMaxMem is each component's unsmoothed max resident memory from
	// the previous window, the finite difference behind MemGrowthMB.
	prevMaxMem map[compKey]float64
	// sawMemory records that samples have carried resident-memory
	// measurements (the runtime memory model is on): MeasuredDemands then
	// replaces declared memory with the measured projection.
	sawMemory bool
	// lastFlushFull classifies the most recent flush against the samples'
	// FullWindow, and is shared with the controller's decision clocks.
	// Partial flushes (mid-window Reassign, trailing Finish) scale their
	// growth deltas up to a full window so MemGrowthMB stays a
	// per-full-window slope, and are excluded from the Windows() count: a
	// 250 ms slice is not a window of evidence.
	lastFlushFull bool
}

// NewProfiler returns a Profiler with the given configuration.
func NewProfiler(cfg ProfilerConfig) *Profiler {
	return &Profiler{
		cfg:        cfg.withDefaults(),
		stats:      make(map[compKey]*ComponentStats),
		dead:       make(map[string]map[int]bool),
		crashed:    make(map[string]map[int]bool),
		edges:      make(map[edgeKey]*EdgeStats),
		nodeBusy:   make(map[cluster.NodeID]time.Duration),
		prevMaxMem: make(map[compKey]float64),
	}
}

// Windows returns the number of full metrics windows observed. Partial
// flushes (mid-window Reassign, trailing Finish) fold into the estimates
// but do not count as windows of evidence.
func (p *Profiler) Windows() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.windows
}

// LastFlushFull reports whether the most recent OnWindow covered a full
// metrics window. The controller keys its hysteresis/cooldown clocks on
// this, so partial flushes cannot satisfy hysteresis early or burn
// cooldown in less real time than configured.
func (p *Profiler) LastFlushFull() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastFlushFull
}

// OnWindow implements simulator.Observer.
func (p *Profiler) OnWindow(samples []simulator.TaskSample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var window, full time.Duration
	if len(samples) > 0 {
		window = samples[0].WindowEnd - samples[0].WindowStart
		full = samples[0].FullWindow
	}
	p.lastFlushFull = false
	if window <= 0 {
		return
	}
	p.lastFlushFull = window >= full
	if p.lastFlushFull {
		p.windows++
	}
	// First pass: per-node busy totals, needed to attribute an
	// overcommitted node's capacity across its tasks.
	for k := range p.nodeBusy {
		delete(p.nodeBusy, k)
	}
	for i := range samples {
		if !samples[i].Dead {
			p.nodeBusy[samples[i].Node] += samples[i].Busy
		}
	}
	// Second pass: per-component accumulation of this window.
	type acc struct {
		tasks    int
		util     float64
		maxUtil  float64
		maxSlow  float64
		points   float64
		mbps     float64
		fill     float64
		maxMem   float64
		overflow int64
		latSum   time.Duration
		latN     int64
	}
	type eacc struct {
		tuples int64
		remote int64
	}
	eaccs := make(map[edgeKey]*eacc, len(p.edges))
	var ekeys []edgeKey
	foldEdge := func(topo, comp string, e *simulator.EdgeRate) {
		ek := edgeKey{topo, comp, e.DestComponent}
		ea := eaccs[ek]
		if ea == nil {
			ea = &eacc{}
			eaccs[ek] = ea
			ekeys = append(ekeys, ek)
		}
		ea.tuples += e.Tuples
		if e.Remote {
			ea.remote += e.Tuples
		}
	}
	accs := make(map[compKey]*acc, len(p.stats))
	var keys []compKey
	for i := range samples {
		s := &samples[i]
		if s.Dead {
			d := p.dead[s.Topology]
			if d == nil {
				d = make(map[int]bool)
				p.dead[s.Topology] = d
			}
			d[s.TaskID] = true
			if s.NodeDead {
				cr := p.crashed[s.Topology]
				if cr == nil {
					cr = make(map[int]bool)
					p.crashed[s.Topology] = cr
				}
				cr[s.TaskID] = true
			}
			// Traffic the task delivered before dying this window is real
			// and must reach the cumulative edge totals (the simulator's
			// TuplesSent counted it). Only non-zero counts fold: a
			// long-dead task's all-zero edges must not hold the pair live
			// against the decay below.
			for j := range s.Edges {
				if s.Edges[j].Tuples != 0 {
					foldEdge(s.Topology, s.Component, &s.Edges[j])
				}
			}
			continue
		}
		// A live sample for a task marked dead means the control plane
		// revived it (an evicted tenant readmitted): clear the mark so the
		// replanner stops pinning an executor that is running again.
		if d := p.dead[s.Topology]; d != nil {
			delete(d, s.TaskID)
		}
		if cr := p.crashed[s.Topology]; cr != nil {
			delete(cr, s.TaskID)
		}
		k := compKey{s.Topology, s.Component}
		a := accs[k]
		if a == nil {
			a = &acc{}
			accs[k] = a
			keys = append(keys, k)
		}
		a.tasks++
		a.util += s.Utilization()
		if u := s.Utilization(); u > a.maxUtil {
			a.maxUtil = u
		}
		if s.Slowdown > a.maxSlow {
			a.maxSlow = s.Slowdown
		}
		a.points += p.taskPoints(s, window)
		a.mbps += float64(s.BytesOut) * 8 / 1e6 / window.Seconds()
		a.fill += s.QueueFill()
		if s.NodeMemCapacityMB > 0 {
			p.sawMemory = true
		}
		if s.ResidentMemMB > a.maxMem {
			a.maxMem = s.ResidentMemMB
		}
		a.overflow += s.Overflows
		a.latSum += s.LatencySum
		a.latN += s.LatencyN
		// Edge traffic: sum each (component, dest component) pair's tuple
		// counts across the source component's tasks. Task-level edges
		// (TaskSample.Edges) arrive in deterministic order, so the
		// first-seen pair order is deterministic too.
		for j := range s.Edges {
			foldEdge(s.Topology, s.Component, &s.Edges[j])
		}
	}
	for _, k := range keys {
		a := accs[k]
		st := p.stats[k]
		if st == nil {
			st = &ComponentStats{Topology: k.topo, Component: k.comp}
			p.stats[k] = st
			p.order = append(p.order, k)
		}
		n := float64(a.tasks)
		st.Tasks = a.tasks
		st.Windows++
		st.Overflows += a.overflow
		ew := func(prev, sample float64) float64 {
			if st.Windows == 1 {
				return sample
			}
			return alpha*sample + (1-alpha)*prev
		}
		st.Utilization = ew(st.Utilization, a.util/n)
		st.MaxUtilization = ew(st.MaxUtilization, a.maxUtil)
		st.MaxSlowdown = a.maxSlow
		st.CPUPoints = ew(st.CPUPoints, a.points/n)
		st.EgressMbps = ew(st.EgressMbps, a.mbps/n)
		st.QueueFill = ew(st.QueueFill, a.fill/n)
		st.MemResidentMB = ew(st.MemResidentMB, a.maxMem)
		if growth := a.maxMem - p.prevMaxMem[k]; st.Windows > 1 && growth > 0 {
			// A partial flush (mid-window Reassign, trailing Finish) spans
			// less than a full metrics window; its delta is scaled up so
			// the EWMA stays a per-full-window slope.
			if window < full {
				growth *= float64(full) / float64(window)
			}
			st.MemGrowthMB = ew(st.MemGrowthMB, growth)
		} else if st.Windows > 1 {
			// Flat or shrinking resident decays the slope toward zero so a
			// plateaued working set stops being projected upward forever.
			st.MemGrowthMB = ew(st.MemGrowthMB, 0)
		}
		p.prevMaxMem[k] = a.maxMem
		if a.latN > 0 {
			st.MeanLatency = time.Duration(ew(float64(st.MeanLatency),
				float64(a.latSum)/float64(a.latN)))
		}
	}
	// Fold the window's edge traffic into the EWMA matrix. Rates are
	// normalized by the flushed interval, so partial flushes (mid-window
	// Reassign, trailing Finish) fold at their true per-second rate just
	// like the egress estimate above.
	for _, ek := range ekeys {
		ea := eaccs[ek]
		st := p.edges[ek]
		if st == nil {
			st = &EdgeStats{Topology: ek.topo, From: ek.from, To: ek.to}
			p.edges[ek] = st
			p.edgeOrder = append(p.edgeOrder, ek)
		}
		st.Windows++
		st.Tuples += ea.tuples
		st.RemoteTuples += ea.remote
		rate := float64(ea.tuples) / window.Seconds()
		if st.Windows == 1 {
			st.RatePerSec = rate
		} else {
			st.RatePerSec = alpha*rate + (1-alpha)*st.RatePerSec
		}
	}
	// Edges that folded nothing this window have no live source tasks
	// left (a live task materializes all its edges every flush, zero
	// counts included, and a dead task's edges fold only while they still
	// carry death-window traffic): like the component decay below, the
	// rate snaps to zero instead of freezing at its last — possibly hot —
	// value, so a dead component's edges stop pulling traffic plans and
	// stop reading as live flow in ControllerStatus. Cumulative totals are
	// history and stay.
	for _, ek := range p.edgeOrder {
		if _, live := eaccs[ek]; live {
			continue
		}
		st := p.edges[ek]
		st.Windows++
		st.RatePerSec = 0
	}
	// Components with no live tasks left this window decay to zero load
	// instead of freezing at their last (possibly hot) estimate — a fully
	// failed component must not read as a perpetual hotspot.
	for _, k := range p.order {
		if _, live := accs[k]; live {
			continue
		}
		st := p.stats[k]
		st.Tasks = 0
		st.Windows++
		st.Utilization = 0
		st.MaxUtilization = 0
		st.MaxSlowdown = 1
		st.CPUPoints = 0
		st.EgressMbps = 0
		st.QueueFill = 0
		st.MemResidentMB = 0
		st.MemGrowthMB = 0
		p.prevMaxMem[k] = 0
	}
}

// DeadTasks returns the IDs of a topology's tasks observed dead so far.
// The returned map is live profiler state: callers must not mutate it and
// should treat it as read-only under the profiler's single observation
// stream.
func (p *Profiler) DeadTasks(topo string) map[int]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead[topo]
}

// CrashedTasks returns a copy of the IDs of topo's tasks lost to node
// crashes — dead tasks whose host was dead when last sampled dead. This
// is the failover trigger's restart set: unlike OOM-killed tasks (whose
// node is healthy and whose death was a resource verdict), crash victims
// have capacity waiting for them elsewhere. Nil when none. A copy,
// because callers hand it to the incremental pass and mutate plans
// around it across epochs.
func (p *Profiler) CrashedTasks(topo string) map[int]bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	src := p.crashed[topo]
	if len(src) == 0 {
		return nil
	}
	out := make(map[int]bool, len(src))
	for id := range src {
		out[id] = true
	}
	return out
}

// measuresMemory reports whether samples have carried resident-memory
// measurements, which is when the controller's plans keep memory headroom.
func (p *Profiler) measuresMemory() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sawMemory
}

// crashedCount is the controller's per-window probe: how many of topo's
// tasks are currently crash-dead and awaiting restart.
func (p *Profiler) crashedCount(topo string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.crashed[topo])
}

// taskPoints estimates one task's CPU demand in points for this window.
//
// The simulator's contention model stretches service times by
// f = max(1, D/C) where D is the node's true aggregate demand and C its
// capacity. When f > 1 the node is saturated and D = f·C exactly, so the
// node's true demand is attributed across its tasks in proportion to their
// busy time — recovering each saturated task's true points. When f == 1
// the executor's un-stretched busy fraction bounds its demand: one fully
// busy executor thread consumes at most a node's worth of points, so the
// estimate is busyFrac·C (capped at C).
func (p *Profiler) taskPoints(s *simulator.TaskSample, window time.Duration) float64 {
	c := s.NodeCPUCapacity
	if c <= 0 {
		return 0
	}
	if s.Slowdown > 1 {
		total := p.nodeBusy[s.Node]
		if total <= 0 {
			return 0
		}
		return s.Slowdown * c * float64(s.Busy) / float64(total)
	}
	points := c * s.Utilization()
	if points > c {
		points = c
	}
	return points
}

// eachComponent visits every component's live estimate in first-seen
// order without copying — the controller's per-window evaluation path.
// The *ComponentStats must not be retained or mutated by fn.
func (p *Profiler) eachComponent(fn func(topo string, st *ComponentStats)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range p.order {
		fn(k.topo, p.stats[k])
	}
}

// Stats returns the named topology's component estimates in first-seen
// (topology registration) order.
func (p *Profiler) Stats(topo string) []ComponentStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []ComponentStats
	for _, k := range p.order {
		if k.topo == topo {
			out = append(out, *p.stats[k])
		}
	}
	return out
}

// EdgeStats returns the named topology's component-pair traffic estimates
// in first-seen order — the measured edge-rate matrix ControllerStatus
// carries and rstorm-sim -traffic renders.
func (p *Profiler) EdgeStats(topo string) []EdgeStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []EdgeStats
	for _, k := range p.edgeOrder {
		if k.topo == topo {
			out = append(out, *p.edges[k])
		}
	}
	return out
}

// TrafficMatrix materializes the named topology's measured component-pair
// rates for the incremental pass's network-cost objective. Nil when no
// traffic has been measured yet (the pass then keeps the distance
// objective rather than planning on an all-zero matrix).
func (p *Profiler) TrafficMatrix(topo string) *core.TrafficMatrix {
	p.mu.Lock()
	defer p.mu.Unlock()
	var m *core.TrafficMatrix
	for _, k := range p.edgeOrder {
		if k.topo != topo {
			continue
		}
		if m == nil {
			m = core.NewTrafficMatrix()
		}
		m.Set(k.from, k.to, p.edges[k].RatePerSec)
	}
	return m
}

// MeasuredDemands returns per-component, per-task demand vectors with the
// declared CPU (and bandwidth) axes replaced by measured estimates. The
// memory axis stays declared on memory-blind runs — memory is the hard
// axis the measured reschedule must still respect, and without the
// simulator's runtime memory model there is nothing to measure it with —
// but once samples have carried resident-memory measurements it becomes
// the measured max resident projected forward by MemLookaheadWindows of
// EWMA growth, which is what lets the control loop correct memory
// mis-declarations in both directions. Components with no samples yet are
// omitted, falling back to declarations.
func (p *Profiler) MeasuredDemands(topo *topology.Topology) map[string]resource.Vector {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]resource.Vector)
	name := topo.Name()
	for _, k := range p.order {
		if k.topo != name {
			continue
		}
		comp := topo.Component(k.comp)
		if comp == nil {
			continue
		}
		st := p.stats[k]
		if st.Windows == 0 {
			continue
		}
		mem := comp.MemoryLoad
		if p.sawMemory {
			mem = st.MemResidentMB + float64(p.cfg.MemLookaheadWindows)*st.MemGrowthMB
		}
		out[k.comp] = resource.Vector{
			CPU:       st.CPUPoints,
			MemoryMB:  mem,
			Bandwidth: st.EgressMbps,
		}
	}
	return out
}
