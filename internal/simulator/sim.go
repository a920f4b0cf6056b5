package simulator

import (
	"fmt"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/metrics"
	"rstorm/internal/pardes"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
)

// simNode is a worker machine at runtime.
type simNode struct {
	id   cluster.NodeID
	rack cluster.RackID
	spec cluster.NodeSpec
	// lane is the event loop that owns this node — fixed for the whole run
	// (lanes partition by rack, and machines do not change racks). Tasks
	// move between lanes only by moving between nodes.
	lane      *simLane
	nic       *link
	tasks     []*simTask
	cpuDemand float64 // true CPU points of all hosted tasks
	slowdown  float64 // max(1, cpuDemand/capacity): soft overcommit stretch
	dead      bool
	// slowFactor is the transient degradation multiplier of a Slow fault
	// (faultinject.go), 1 when healthy. It stretches service times on top
	// of the overcommit slowdown and resets when the node recovers.
	slowFactor float64
	// crashedAt is the virtual time of the node's last crash; downtime
	// accumulates completed dead intervals (recoverNode), with a still-dead
	// tail added at buildResult.
	crashedAt time.Duration
	downtime  time.Duration
	// everHosted marks nodes that held at least one task at any point of
	// the run (a node fully drained by migration still counts as used).
	everHosted bool
	// departedWeighted accumulates busy-duration × CPU points of work that
	// migrated tasks performed while hosted here, so utilization
	// accounting attributes each task's busy time to the node it actually
	// ran on.
	departedWeighted float64
}

// simTask is one executor at runtime.
type simTask struct {
	run       *topoRun
	task      topology.Task
	comp      *topology.Component
	node      *simNode
	placement core.Placement
	queue     *boundedQueue
	outs      []*router
	isSink    bool
	busy      bool
	dead      bool
	tracker   metrics.BusyTracker
	// service is the stretched per-tuple cost, frozen at Run start once
	// the node's overcommit factor is known.
	service time.Duration
	// procWin / sinkWin are the task's own metric series, lazily allocated
	// on first record so a task that never processes (or never sinks)
	// keeps no series. Per-task ownership keeps the hot path free of map
	// lookups and of cross-lane writes; buildResult sums tasks into the
	// per-component series the Result reports.
	procWin *metrics.Windowed
	sinkWin *metrics.Windowed

	// outBuf is the task's delivery scratch buffer. A task has at most
	// one emission in flight (spouts park until the previous root tuple's
	// fan-out is accepted; bolts stay busy until theirs is), so the buffer
	// is safely reused across emissions instead of allocating a fresh
	// outbound slice per tuple. outIdx is the delivery cursor.
	outBuf []outbound
	outIdx int

	// creditedBusy is the busy time already attributed to previous host
	// nodes at migration time (see Reassign); tracker.Busy() minus this is
	// what the current host has seen.
	creditedBusy time.Duration

	// handled counts tuples this task has executed over its lifetime
	// (bolt executions, spout root emissions) — the clock of the memory
	// model's state-growth ramp (memory.go). One integer add on the hot
	// path, maintained unconditionally.
	handled int64

	// Spout state.
	isSpout  int // 1 if spout (int for alignment clarity; 0 otherwise)
	inFlight int
	parked   bool // waiting for a max-pending credit
	// rngState is the spout's private splitmix64 key stream (lane.go).
	// Seeded from (seed, topology, task ID) only, so it is independent of
	// placement, of the lane partition and of the worker count.
	rngState uint64
	// replayQ holds failed tuple trees awaiting re-emission (at-least-once
	// replay, faultinject.go). Each entry's max-pending credit is still
	// held, so re-emission does not take a new one. Always empty with
	// Config.Replay off.
	replayQ []spoutReplay

	// Per-window counters for the metrics tap (observer.go). Plain adds on
	// the hot path; materialized and reset at window flushes.
	winBusy      time.Duration
	winProcessed int64
	winEmitted   int64
	winOverflows int64
	winBytesOut  int64
	winLatSum    time.Duration
	winLatN      int64

	// Whole-run totals, summed across the run's tasks at buildResult.
	// Keeping them per task (not per run) means a lane only ever writes
	// counters of tasks it owns; integer sums commute, so the aggregated
	// totals match the old shared counters exactly.
	totEmitted    int64
	totProcessed  int64
	totDelivered  int64
	totExpired    int64
	totLatSum     time.Duration
	totLatN       int64
	totSent       int64
	totSentRemote int64

	// hist is the task's complete-tree latency histogram, allocated only
	// for sink tasks under Config.LatencyHistograms (recordSink is the
	// sole observation point) and nil otherwise — the hot path pays one
	// nil check. Merged into the run's window/cumulative histograms and
	// reset at each window flush.
	hist *trace.Histogram

	// edges are this task's outgoing traffic counters in wire-creation
	// order (outgoing streams, then consumer tasks — deterministic and
	// placement-independent). Allocated on the first buildRouters pass and
	// re-linked positionally on Reassign rebuilds, so counts accumulated
	// mid-window survive a migration intact. edgeBuf is the reusable
	// materialization of edges into TaskSample.Edges at window flushes.
	edges   []*edgeCount
	edgeBuf []EdgeRate
}

// wire is a precomputed delivery edge to one consumer task: the network
// path classification is static per task pair, so it is resolved once at
// topology-add time instead of per tuple.
type wire struct {
	dest    *simTask
	latency time.Duration
	net     bool  // path crosses the network (consumes NIC bandwidth)
	uplink  *link // rack uplink for inter-rack hops, else nil
	// edge is the persistent per-(emitter, consumer) traffic counter this
	// wire delivers into. Wires are rebuilt on every Reassign; edge
	// counters are owned by the emitting task and survive rebuilds, so
	// mid-window migrations neither lose nor double-count traffic.
	edge *edgeCount
}

// edgeCount measures one delivery edge — (emitter task, consumer task) —
// for the adaptive control plane's traffic matrix. The tuples counter is a
// single int add on the hot delivery path, materialized into TaskSample
// edge rates and reset at each metrics-window flush. The edge set is fixed
// at topology-add time (wires span every consumer regardless of
// placement), so counters are allocated once and only re-linked when
// Reassign rebuilds the wires.
type edgeCount struct {
	dest   *simTask
	tuples int64 // window counter, reset at flush
}

// router fans one outgoing stream out to consumer tasks per its grouping.
type router struct {
	stream  topology.Stream
	wires   []wire // one per consumer task, in task order
	local   []int  // indices into wires of same-worker consumers
	rr      int
	localRR int
	carry   float64
}

// topoRun is one topology's runtime state.
type topoRun struct {
	topo       *topology.Topology
	assignment *core.Assignment
	tasks      map[int]*simTask
	ordered    []*simTask // dense task-ID order, for iteration
	maxPending int        // per-spout-task tuple-tree cap

	// winHist / cumHist aggregate the run's sink-task histograms per
	// window and over the whole run (Config.LatencyHistograms); latP99
	// is the per-window p99 series in milliseconds, closed at full
	// window boundaries like the throughput series. All nil/empty with
	// histograms off.
	winHist *trace.Histogram
	cumHist *trace.Histogram
	latP99  []float64
}

// Simulation wires topologies, assignments, and a cluster into a
// discrete-event run. A simulation either runs in one shot (Run) or in
// epochs: Start, then RunTo as many times as needed — with Reassign calls
// between epochs migrating tasks — then Finish.
//
// One event loop drives every run (DESIGN.md §11): lanes, each an event
// engine over a fixed subset of the nodes, advanced by a
// pardes.Coordinator in conservative lookahead windows, with metrics
// flushes and cross-lane merges at the barriers between windows.
// Config.Shards chooses only the lane partition. Shards == 0 is one lane
// spanning the cluster, on one worker — the paper's model, in which acks
// and completions never cross a lane. Shards >= 1 is one lane per rack
// on min(Shards, racks) workers; cross-rack acks and completions then pay
// the inter-rack latency, and results are byte-identical for every
// Shards >= 1, which is what makes the parallelism trustworthy.
type Simulation struct {
	cfg      Config
	cluster  *cluster.Cluster
	nodes    map[cluster.NodeID]*simNode
	order    []cluster.NodeID
	uplinks  map[cluster.RackID]*link
	runs     []*topoRun
	schedule faults.Schedule // pre-start fault injections, applied in Start
	faultLog []FaultRecord   // faults actually applied, in virtual-time order
	started  bool
	finished bool

	// Kernel state. lanes is never empty. lookahead is the inter-rack
	// path latency — the conservative window bound. clock / nextFlush
	// drive the window loop (sharded.go); coord exists from Start on.
	lanes     []*simLane
	coord     *pardes.Coordinator
	lookahead time.Duration
	clock     time.Duration
	nextFlush time.Duration // next flush barrier; 0 = flushes disabled

	// Metrics tap (observer.go). lastFlush is the virtual time of the most
	// recent window flush, bounding the partial tail window Finish (and
	// mid-window Reassigns) must still deliver.
	observer  Observer
	sampleBuf []TaskSample
	windowIdx int
	lastFlush time.Duration

	// Observability attach points (trace.go). tracer exists iff
	// Config.TraceSampleEvery > 0; journal is attached via SetJournal.
	// Both require the one-lane partition (rejected otherwise).
	tracer  *trace.Tracer
	journal *trace.Journal
}

// New returns a Simulation over the cluster.
func New(c *cluster.Cluster, cfg Config) (*Simulation, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("simulator config: %w", err)
	}
	s := &Simulation{
		cfg:     cfg,
		cluster: c,
		nodes:   make(map[cluster.NodeID]*simNode, c.Size()),
		order:   c.NodeIDs(),
		uplinks: make(map[cluster.RackID]*link, len(c.Racks())),
	}
	if cfg.TraceSampleEvery > 0 {
		s.tracer = trace.NewTracer(cfg.TraceSampleEvery, trace.DefaultMaxSpans)
	}
	for _, n := range c.Nodes() {
		sn := &simNode{id: n.ID, rack: n.Rack, spec: n.Spec, slowdown: 1, slowFactor: 1}
		sn.nic = newLink(func() bool { return !sn.dead },
			n.Spec.NICMbps, nicQueueCapacity, nicWindow)
		s.nodes[n.ID] = sn
	}
	// One uplink per rack to the aggregation switch (Fig. 4). All
	// inter-rack traffic leaving a rack shares it.
	for _, rack := range c.Racks() {
		s.uplinks[rack] = newLink(func() bool { return true },
			c.Network().InterRackMbps, 4*nicQueueCapacity, 4*nicWindow)
	}

	// Lane partition. Shards == 0 keeps the cluster in one lane. Shards
	// >= 1 slices it one lane per rack — the partition depends only on the
	// cluster, never on the worker count, so results are identical for
	// every Shards >= 1. A single-rack cluster (or a degenerate zero
	// inter-rack latency, which would leave no conservative lookahead)
	// collapses to one lane, which is the Shards == 0 partition.
	s.lookahead = c.Network().Latency(cluster.PathInterRack)
	racks := c.Racks()
	laneCount := 1
	var rackLane map[cluster.RackID]int
	if cfg.Shards > 0 && s.lookahead > 0 && len(racks) > 1 {
		laneCount = len(racks)
		rackLane = make(map[cluster.RackID]int, laneCount)
		for i, r := range racks {
			rackLane[r] = i
		}
	}
	s.lanes = make([]*simLane, laneCount)
	for i := range s.lanes {
		s.lanes[i] = newLane(s, i)
		s.lanes[i].out = make([]pardes.Ring[laneMsg], laneCount)
	}
	for _, id := range s.order {
		n := s.nodes[id]
		li := 0
		if rackLane != nil {
			li = rackLane[n.rack]
		}
		n.lane = s.lanes[li]
		n.nic.lane = n.lane
		n.lane.nodes = append(n.lane.nodes, n)
	}
	for _, rack := range racks {
		li := 0
		if rackLane != nil {
			li = rackLane[rack]
		}
		s.uplinks[rack].lane = s.lanes[li]
	}
	return s, nil
}

// Config returns the simulation's effective (default-filled) configuration.
func (s *Simulation) Config() Config { return s.cfg }

// now returns the current virtual time. Lane 0's clock is authoritative:
// every public entry point runs at a barrier, where all lanes agree.
func (s *Simulation) now() time.Duration { return s.lanes[0].eng.Now() }

// AddTopology registers a scheduled topology for execution. It must be
// called before Start; SubmitTopology (tenancy.go) is the mid-run
// admission path.
func (s *Simulation) AddTopology(topo *topology.Topology, a *core.Assignment) error {
	if s.started {
		return fmt.Errorf("simulation already started")
	}
	if err := s.checkAssignment(topo, a); err != nil {
		return err
	}
	if s.runNamed(topo.Name()) != nil {
		return fmt.Errorf("topology %q already added", topo.Name())
	}
	s.addRun(topo, a)
	return nil
}

// addRun constructs a checked topology's runtime state, wiring its tasks
// onto their nodes and building delivery routers. Shared by the pre-start
// AddTopology and the mid-run SubmitTopology.
func (s *Simulation) addRun(topo *topology.Topology, a *core.Assignment) *topoRun {
	run := &topoRun{
		topo:       topo,
		assignment: a,
		tasks:      make(map[int]*simTask, topo.TotalTasks()),
		maxPending: topo.MaxSpoutPending(),
	}
	if run.maxPending <= 0 {
		run.maxPending = s.cfg.MaxSpoutPending
	}
	if s.cfg.LatencyHistograms {
		run.winHist = trace.NewHistogram()
		run.cumHist = trace.NewHistogram()
	}
	sinkSet := make(map[string]bool)
	for _, c := range topo.Sinks() {
		sinkSet[c.Name] = true
	}
	for _, task := range topo.Tasks() {
		p := a.Placements[task.ID]
		node := s.nodes[p.Node]
		comp := topo.Component(task.Component)
		st := &simTask{
			run:       run,
			task:      task,
			comp:      comp,
			node:      node,
			placement: p,
			queue:     newBoundedQueue(s.cfg.QueueCapacity),
			isSink:    sinkSet[comp.Name],
			rngState:  taskSeed(s.cfg.Seed, topo.Name(), task.ID),
		}
		if comp.Kind == topology.KindSpout {
			st.isSpout = 1
		}
		if s.cfg.LatencyHistograms && st.isSink {
			st.hist = trace.NewHistogram()
		}
		node.tasks = append(node.tasks, st)
		node.cpuDemand += comp.EffectiveCPUPoints()
		node.everHosted = true
		run.tasks[task.ID] = st
		run.ordered = append(run.ordered, st)
	}
	s.buildRouters(run)
	s.runs = append(s.runs, run)
	return run
}

// buildRouters (re)resolves the run's delivery edges. Path level, latency,
// and rack uplink are static per (emitter, consumer) pair for a given
// placement, so they are resolved once at topology-add time — and again
// after a Reassign moves tasks — rather than per delivered tuple. Rebuilding
// resets round-robin and out-ratio carry state, which is fine: a rebalance
// is a restart of the affected workers.
func (s *Simulation) buildRouters(run *topoRun) {
	net := s.cluster.Network()
	topo := run.topo
	for _, st := range run.ordered {
		st.outs = st.outs[:0]
		// Edge counters are identified positionally: the wire iteration
		// order below is placement-independent (outgoing streams, then
		// consumer tasks), so on a rebuild the running index re-links each
		// wire to the counter it fed before the migration.
		edgeIdx := 0
		for _, stream := range topo.Outgoing(st.task.Component) {
			r := &router{stream: stream}
			for _, ct := range topo.TasksOf(stream.To) {
				target := run.tasks[ct.ID]
				if edgeIdx == len(st.edges) {
					st.edges = append(st.edges, &edgeCount{dest: target})
				}
				edge := st.edges[edgeIdx]
				edgeIdx++
				sameWorker := target.placement == st.placement
				path := s.cluster.PathBetween(st.node.id, target.node.id, sameWorker)
				w := wire{
					dest:    target,
					latency: net.Latency(path),
					net:     path.CrossesNetwork(),
					edge:    edge,
				}
				if path == cluster.PathInterRack && net.InterRackMbps > 0 {
					w.uplink = s.uplinks[st.node.rack]
				}
				if sameWorker {
					r.local = append(r.local, len(r.wires))
				}
				r.wires = append(r.wires, w)
			}
			st.outs = append(st.outs, r)
		}
	}
}

// Run executes the simulation in one shot and returns its Result. A
// Simulation runs once. Epoch-driven callers (the adaptive control loop)
// use Start / RunTo / Reassign / Finish instead.
func (s *Simulation) Run() (*Result, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	return s.Finish()
}

// Start freezes the contention model, schedules failure injections and
// spout bootstraps, and makes the simulation runnable. It does not advance
// virtual time.
func (s *Simulation) Start() error {
	if s.started {
		return fmt.Errorf("simulation already started")
	}
	if len(s.runs) == 0 {
		return fmt.Errorf("no topologies added")
	}
	s.started = true

	// Freeze per-node CPU overcommit factors (static processor sharing)
	// and per-task service times. Both stay fixed until a Reassign epoch
	// refreshes the affected nodes.
	for _, id := range s.order {
		s.freezeNode(s.nodes[id])
	}
	// Fault injections fire on the faulted node's lane: the crash mutates
	// that lane's nodes and tasks, so it must run inside that lane's loop.
	for _, f := range s.schedule {
		ln := s.nodes[f.Node].lane
		ln.eng.ScheduleEvent(f.At, &faultEvent{ln: ln, f: f})
	}
	for _, run := range s.runs {
		for _, st := range run.ordered {
			if st.isSpout == 1 {
				st.node.lane.scheduleTask(0, evSpoutCycle, st)
			}
		}
	}
	// Latency histograms ride the same flush cadence as the observer:
	// window boundaries close each topology's per-window percentile
	// sample whether or not anyone taps the samples. Flushes happen at
	// barriers (sharded.go), where every lane is quiescent and task state
	// is safe to read across lanes. A flush at time T materializes
	// [lastFlush, T): it runs before any event at exactly T.
	if (s.observer != nil || s.cfg.LatencyHistograms) && s.cfg.MetricsWindow <= s.cfg.Duration {
		s.nextFlush = s.cfg.MetricsWindow
	}
	// OOM enforcement shares the window cadence but not the observer: the
	// memory hard axis is enforced whether or not anyone is watching. The
	// check is an event at the boundary, so it fires after the barrier's
	// flush: the observer samples the over-capacity window before the
	// kill happens. Each lane enforces its own nodes.
	if s.cfg.MemoryModel && s.cfg.MetricsWindow <= s.cfg.Duration {
		for _, ln := range s.lanes {
			ln.scheduleTask(s.cfg.MetricsWindow, evOOMCheck, nil)
		}
	}
	ifaces := make([]pardes.Lane, len(s.lanes))
	for i, ln := range s.lanes {
		ifaces[i] = ln.eng
	}
	s.coord = pardes.NewCoordinator(ifaces, s.cfg.Shards)
	return nil
}

// RunTo advances virtual time to t (clamped to the configured duration).
// It is the epoch boundary of the adaptive control loop: between RunTo
// calls the simulation is paused and Reassign may migrate tasks. Windows
// are half-open, so events at exactly t stay pending until the next epoch
// (or Finish).
func (s *Simulation) RunTo(t time.Duration) error {
	if !s.started {
		return fmt.Errorf("simulation not started")
	}
	if s.finished {
		return fmt.Errorf("simulation already finished")
	}
	if t > s.cfg.Duration {
		t = s.cfg.Duration
	}
	s.runWindows(t)
	return nil
}

// Finish runs the simulation to its configured duration and builds the
// Result. A Simulation finishes once.
func (s *Simulation) Finish() (*Result, error) {
	if !s.started {
		return nil, fmt.Errorf("simulation not started")
	}
	if s.finished {
		return nil, fmt.Errorf("simulation already finished")
	}
	s.runWindows(s.cfg.Duration)
	// Events at exactly Duration are still pending (half-open windows).
	// Run them serially, lane by lane: any cross-lane message they emit
	// lands at or beyond Duration+lookahead — past the end of simulated
	// time for every lane — so leaving the inboxes undrained afterwards is
	// uniform and order-independent.
	for _, ln := range s.lanes {
		ln.eng.RunUntil(s.cfg.Duration)
	}
	s.mergeLaneFaults()
	s.coord.Stop()
	// Deliver the trailing partial window: when Duration is not a multiple
	// of MetricsWindow the tail counters never see a scheduled flush, and
	// the adaptive profiler would silently miss the final samples.
	s.flushPartialWindow()
	s.finished = true
	return s.buildResult(), nil
}

// freezeNode recomputes a node's CPU overcommit stretch from the true
// demand of its hosted tasks, then refreezes its tasks' service times.
// Dead tasks consume nothing: an OOM-killed executor's CPU demand departs
// with it. (With the memory model off, a dead task only ever sits on a
// dead node, which is never refrozen, so the skip changes nothing.)
func (s *Simulation) freezeNode(n *simNode) {
	n.cpuDemand = 0
	for _, t := range n.tasks {
		if t.dead {
			continue
		}
		n.cpuDemand += t.comp.EffectiveCPUPoints()
	}
	n.slowdown = 1
	switch {
	case n.spec.Capacity.CPU > 0:
		if f := n.cpuDemand / n.spec.Capacity.CPU; f > 1 {
			n.slowdown = f
		}
	case n.cpuDemand > 0:
		n.slowdown = 1000 // no declared CPU at all: crawl
	}
	for _, t := range n.tasks {
		t.service = s.serviceTime(t)
	}
}

// serviceTime returns the stretched per-tuple cost for a task: the
// component's profile cost × the node's overcommit slowdown × any
// transient slow-fault degradation (slowFactor is exactly 1 on healthy
// nodes, so fault-free runs are bit-identical to the pre-fault model).
func (s *Simulation) serviceTime(t *simTask) time.Duration {
	d := time.Duration(float64(t.comp.Profile.CPUPerTuple) * t.node.slowdown * t.node.slowFactor)
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// spoutCycle generates one root tuple, delivers it, and loops. It parks
// when the max-pending window is full and is woken by tree completion. A
// queued replay proceeds regardless of credits: its tree's credit is
// already held.
//
//rstorm:hotpath
func (ln *simLane) spoutCycle(t *simTask) {
	if t.dead {
		return
	}
	if len(t.replayQ) == 0 && t.inFlight >= t.run.maxPending {
		t.parked = true
		return
	}
	ln.scheduleTask(t.service, evSpoutFire, t)
}

// spoutFire runs when a spout's per-tuple service completes: it emits one
// root tuple tree and starts delivering its fan-out.
//
//rstorm:hotpath
func (ln *simLane) spoutFire(t *simTask) {
	if t.dead {
		return
	}
	s := ln.sim
	t.tracker.AddBusy(t.service)
	t.winBusy += t.service
	t.winEmitted++
	t.handled++
	now := ln.eng.Now()
	// A queued replay re-emits a failed tree's key on its held credit;
	// otherwise a fresh root tuple draws a new key (and a new credit) from
	// the spout's private key stream: lanes run concurrently, so a shared
	// RNG's draw order would depend on how the workers interleave.
	var key uint64
	attempt := 0
	replaying := len(t.replayQ) > 0
	if replaying {
		re := t.replayQ[0]
		t.replayQ = t.replayQ[:copy(t.replayQ, t.replayQ[1:])]
		key, attempt = re.key, re.attempt
		ln.replayed++
	} else {
		key = t.nextKey() % uint64(t.comp.Profile.KeyCardinality)
	}
	tr := ln.newTree(t)
	tr.key = key
	tr.attempt = attempt
	if s.tracer != nil {
		if id := s.tracer.SampleRoot(); id != 0 {
			tr.trace = id
			s.tracer.Record(trace.Span{Trace: id, Kind: trace.SpanRoot,
				Topology: t.run.topo.Name(), Component: t.comp.Name,
				Task: t.task.ID, From: -1, At: now})
		}
	}
	outs := ln.routeOutputs(t, key, now, tr, true)
	t.totEmitted++
	if t.isSink {
		// A spout with no consumers is its own sink: count it.
		ln.recordSink(t, now, now)
	}
	if len(outs) == 0 {
		ln.freeTree(tr)
		if replaying {
			t.inFlight-- // the held credit has nothing left to wait for
		}
		ln.scheduleTask(0, evSpoutCycle, t)
		return
	}
	tr.pending = len(outs)
	if !replaying {
		t.inFlight++
	}
	t.outIdx = 0
	ln.stepDeliver(t)
}

// boltTry starts processing the next queued tuple if the task is idle.
//
//rstorm:hotpath
func (ln *simLane) boltTry(t *simTask) {
	if t.busy || t.dead || t.queue.empty() {
		return
	}
	tup, unblocked, ok := t.queue.dequeue()
	if !ok {
		return
	}
	if unblocked.kind != compNone {
		ln.scheduleComplete(0, unblocked)
	}
	t.busy = true
	ev := ln.newEvent(evBoltFire)
	ev.task = t
	ev.tup = tup
	ln.eng.ScheduleEvent(t.service, ev)
}

// boltFire runs when a bolt's service completes: it records the processed
// tuple and emits (then delivers) its outputs.
//
//rstorm:hotpath
func (ln *simLane) boltFire(t *simTask, tup *tuple) {
	s := ln.sim
	t.tracker.AddBusy(t.service)
	if t.dead {
		// The task's node died mid-service: the tuple is lost. Count the
		// drop and fail its tree so the spout's max-pending credit comes
		// back instead of leaking (a small window could otherwise wedge
		// the spout for the rest of the run).
		ln.dropTuple(tup)
		return
	}
	now := ln.eng.Now()
	t.totProcessed++
	t.winBusy += t.service
	t.winProcessed++
	t.handled++
	if t.procWin == nil {
		t.procWin = newWindowed(s.cfg.MetricsWindow)
	}
	t.procWin.Record(now, 1)
	if id := s.traceOf(tup); id != 0 {
		wait := now - t.service - tup.arrivedAt
		if wait < 0 {
			// A mid-service refreeze can stretch t.service past the value
			// this execution was scheduled with; clamp rather than report
			// a negative queue wait.
			wait = 0
		}
		s.tracer.Record(trace.Span{Trace: id, Kind: trace.SpanHop,
			Topology: t.run.topo.Name(), Component: t.comp.Name,
			Task: t.task.ID, From: int(tup.fromTask), At: now,
			Wait: wait, Service: t.service, Net: tup.arrivedAt - tup.sentAt})
	}
	if t.isSink {
		ln.recordSink(t, now, tup.created)
	}
	outs := ln.routeOutputs(t, tup.key, tup.created, tup.tree, false)
	tr := tup.tree
	ln.freeTuple(tup)
	// The combined delta (children added minus this instance consumed)
	// must reach the tree before any child's own ack can: ackTree rides
	// the same FIFO outbox the children's later acks will, so the tree's
	// pending count never transiently hits zero.
	ln.ackTree(tr, len(outs)-1, false)
	t.outIdx = 0
	ln.stepDeliver(t)
}

// outbound is one tuple instance headed to a destination task.
type outbound struct {
	tup *tuple
	wire
}

// routeOutputs materializes the output tuple instances for one processed
// (or spout-generated) tuple across every outgoing stream, into the task's
// reusable scratch buffer.
//
//rstorm:hotpath
func (ln *simLane) routeOutputs(
	t *simTask, key uint64, created time.Duration, tr *tree, fromSpout bool,
) []outbound {
	outs := t.outBuf[:0]
	bytes := t.comp.Profile.TupleBytes
	for _, r := range t.outs {
		n := 1
		if !fromSpout {
			r.carry += t.comp.Profile.OutRatio
			n = int(r.carry)
			r.carry -= float64(n)
		}
		for i := 0; i < n; i++ {
			if r.stream.Grouping == topology.GroupingAll {
				// One tuple instance per consumer task; no template
				// tuple is built and discarded.
				for wi := range r.wires {
					outs = append(outs, outbound{
						tup:  ln.newTuple(bytes, key, created, tr),
						wire: r.wires[wi],
					})
				}
				continue
			}
			var wi int
			switch r.stream.Grouping {
			case topology.GroupingGlobal:
				wi = 0
			case topology.GroupingFields:
				wi = hashKey(key, len(r.wires))
			case topology.GroupingLocalOrShuffle:
				if len(r.local) > 0 {
					wi = r.local[r.localRR%len(r.local)]
					r.localRR++
				} else {
					wi = r.rr % len(r.wires)
					r.rr++
				}
			default: // shuffle
				wi = r.rr % len(r.wires)
				r.rr++
			}
			outs = append(outs, outbound{
				tup:  ln.newTuple(bytes, key, created, tr),
				wire: r.wires[wi],
			})
		}
	}
	t.outBuf = outs
	return outs
}

// stepDeliver delivers the task's next pending outbound, or finishes the
// sequence. Deliveries are strictly one at a time: the next one starts
// only when the previous is accepted downstream, which is what blocks an
// emitter on backpressure.
//
//rstorm:hotpath
func (ln *simLane) stepDeliver(t *simTask) {
	if t.outIdx >= len(t.outBuf) {
		ln.finishDeliver(t)
		return
	}
	ln.deliver(t, t.outBuf[t.outIdx], completion{kind: compDeliver, task: t})
}

// finishDeliver runs after the last outbound of an emission is accepted:
// spouts loop, bolts go idle and poll their queue.
//
//rstorm:hotpath
func (ln *simLane) finishDeliver(t *simTask) {
	if t.isSpout == 1 {
		ln.spoutCycle(t)
		return
	}
	t.busy = false
	ln.boltTry(t)
}

// deliver moves one tuple instance toward its destination: directly (with
// path latency) for local hand-offs, through the sender's NIC for remote
// ones. comp fires when the sender may proceed.
//
//rstorm:hotpath
func (ln *simLane) deliver(from *simTask, ob outbound, comp completion) {
	s := ln.sim
	ob.edge.tuples++
	from.totSent++
	// Remote accounting classifies against *live* placements, not the
	// wire-build-time ob.net: a sender mid-emission across a Reassign
	// still delivers its buffered outbounds on the stale path (documented
	// in reassign.go), but the inter-node counters must agree with the
	// flush-time EdgeRate.Remote classification, which sees the same live
	// placements. Outside that transition the two predicates are
	// identical (a wire crosses the network iff its endpoints' nodes
	// differ).
	if ob.dest.node != from.node {
		from.totSentRemote++
	}
	if id := s.traceOf(ob.tup); id != 0 {
		ob.tup.sentAt = ln.eng.Now()
		ob.tup.fromTask = int32(from.task.ID)
	}
	// The early dead-destination drop applies only to same-lane targets:
	// another lane's liveness may not be read mid-window (and could have
	// changed by the tuple's arrival time anyway). Cross-lane tuples take
	// the normal path and are dropped by the arrival-side check in
	// enqueueAt, on the destination's own lane. The gate's outcome depends
	// only on the rack partition, never on the worker count.
	if ob.dest.node.lane == ln && (ob.dest.dead || ob.dest.node.dead) {
		if id := s.traceOf(ob.tup); id != 0 {
			s.tracer.Record(trace.Span{Trace: id, Kind: trace.SpanDrop,
				Topology: from.run.topo.Name(), Component: ob.dest.comp.Name,
				Task: ob.dest.task.ID, From: from.task.ID, At: ln.eng.Now()})
		}
		ln.dropTuple(ob.tup)
		ln.scheduleComplete(0, comp)
		return
	}
	if !ob.net {
		ln.scheduleArrive(ob.latency, ob.dest, ob.tup, comp)
		return
	}
	from.winBytesOut += int64(ob.tup.bytes)
	from.node.nic.send(ln, transfer{
		tup:      ob.tup,
		dest:     ob.dest,
		latency:  ob.latency,
		uplink:   ob.uplink,
		accepted: comp,
	})
}

// enqueueAt admits a tuple to a task's input queue, parking the producer
// completion when full. Always runs on dest's own lane.
//
//rstorm:hotpath
func (ln *simLane) enqueueAt(dest *simTask, tup *tuple, comp completion) {
	s := ln.sim
	if dest.dead || dest.node.dead {
		if id := s.traceOf(tup); id != 0 {
			s.tracer.Record(trace.Span{Trace: id, Kind: trace.SpanDrop,
				Topology: dest.run.topo.Name(), Component: dest.comp.Name,
				Task: dest.task.ID, From: int(tup.fromTask), At: ln.eng.Now()})
		}
		ln.dropTuple(tup)
		ln.scheduleComplete(0, comp)
		return
	}
	if id := s.traceOf(tup); id != 0 {
		// Arrival at the queue, including any time about to be spent
		// parked as a waiter: queue wait measures from here.
		tup.arrivedAt = ln.eng.Now()
	}
	if dest.queue.tryEnqueue(tup) {
		ln.scheduleComplete(0, comp)
		ln.scheduleTask(0, evBoltTry, dest)
		return
	}
	dest.winOverflows++
	dest.queue.addWaiter(tup, comp)
}

// recordSink counts a tuple arriving at a sink component and samples its
// end-to-end latency. Tuples older than the tuple timeout are expired:
// real Storm would have failed and replayed them, so they do not count
// toward throughput.
//
//rstorm:hotpath
func (ln *simLane) recordSink(t *simTask, now, created time.Duration) {
	s := ln.sim
	age := now - created
	t.winLatSum += age
	t.winLatN++
	if t.hist != nil {
		// Expired arrivals included: like winLatSum, the histogram
		// reports the truth, not the SLA view.
		t.hist.Observe(age)
	}
	if s.cfg.TupleTimeout > 0 && age > s.cfg.TupleTimeout {
		t.totExpired++
		return
	}
	t.totDelivered++
	if t.sinkWin == nil {
		t.sinkWin = newWindowed(s.cfg.MetricsWindow)
	}
	t.sinkWin.Record(now, 1)
	t.totLatSum += age
	t.totLatN++
}

// dropTuple abandons a tuple instance lost to a node failure.
func (ln *simLane) dropTuple(tup *tuple) {
	ln.dropped++
	ln.failTuple(tup)
}

// failTuple releases a tuple instance and fails its tree so the spout
// recovers its max-pending credit rather than wedging.
//
//rstorm:hotpath
func (ln *simLane) failTuple(tup *tuple) {
	tr := tup.tree
	ln.freeTuple(tup)
	if tr == nil {
		return
	}
	ln.ackTree(tr, -1, true)
}

// completeTree returns a max-pending credit to the spout and wakes it.
// With at-least-once replay on, a failed tree with retries left re-emits
// from the spout after an exponential backoff instead — its credit stays
// held until the retry chain completes or is exhausted. Always runs on
// the tree's home lane (applyAck is the only caller besides spoutFire's
// empty-fanout path), so the spout it wakes is local.
//
//rstorm:hotpath
func (ln *simLane) completeTree(tr *tree) {
	s := ln.sim
	sp := tr.spout
	if tr.failed && s.cfg.Replay && sp != nil {
		if !sp.dead && tr.attempt < replayMaxRetries {
			key, attempt := tr.key, tr.attempt
			ln.freeTree(tr)
			ev := ln.newEvent(evSpoutReplay)
			ev.task = sp
			ev.key = key
			ev.attempt = attempt + 1
			ln.eng.ScheduleEvent(replayBackoff<<uint(attempt), ev)
			return
		}
		ln.lostTrees++
	}
	ln.freeTree(tr)
	if sp == nil {
		return
	}
	sp.inFlight--
	if sp.parked && !sp.dead {
		sp.parked = false
		ln.scheduleTask(0, evSpoutCycle, sp)
	}
}

// failNode kills a node mid-run. Runs on the node's own lane (fault
// events are scheduled onto the faulted node's lane).
func (ln *simLane) failNode(id cluster.NodeID) {
	n := ln.sim.nodes[id]
	if n == nil || n.dead {
		return
	}
	n.dead = true
	n.crashedAt = ln.eng.Now()
	for _, t := range n.tasks {
		t.dead = true
		ln.failQueue(t, false)
	}
	n.nic.fail(ln)
}

// newWindowed allocates a per-task metric series. The window is always a
// validated config value, so the error branch is unreachable.
func newWindowed(window time.Duration) *metrics.Windowed {
	w, _ := metrics.NewWindowed(window)
	return w
}
