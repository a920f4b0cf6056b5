package adaptive

import (
	"fmt"
	"sync"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/resource"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
)

// Trigger names why the controller decided to rebalance.
const (
	TriggerHotspot   = "hotspot"   // a component saturated or overflowing
	TriggerImbalance = "imbalance" // everything idle: consolidation pass
	TriggerMemory    = "memory"    // a node's resident memory nears capacity
	TriggerFailover  = "failover"  // tasks lost to a node crash need restarting
)

// ControllerConfig tunes hotspot detection and the rebalance policy.
type ControllerConfig struct {
	// HighUtil marks a component hot when its EWMA utilization reaches
	// this fraction. Default 0.9.
	HighUtil float64
	// QueueHigh marks a component hot when its EWMA queue fill reaches
	// this fraction (overflow pressure shows up here before utilization
	// does for bursty stages). Default 0.7.
	QueueHigh float64
	// LowUtil marks a topology imbalanced (over-provisioned) when every
	// component's EWMA utilization is at or below it. Default 0.2.
	LowUtil float64
	// Hysteresis is the number of consecutive windows a condition must
	// hold before the controller acts — the anti-flap guard. Default 2.
	Hysteresis int
	// Cooldown is the number of windows after a rebalance during which
	// the controller stays quiet, letting estimates re-converge on the
	// new placement before judging it. Default 3.
	Cooldown int
	// MinWindows is the number of windows the profiler must have seen
	// before any decision (warm-up). Default 2.
	MinWindows int
	// MaxMoves caps migrations per rebalance (0 = no cap).
	MaxMoves int
	// Margin is the stickiness passed to the incremental reschedule.
	// Default 0.15.
	Margin float64
	// MemHigh marks a topology memory-hot when any node hosting its live
	// tasks has resident memory at or above this fraction of capacity —
	// the early-warning threshold that gets tasks off a filling node
	// before the simulator's OOM killer fires at 1.0. Requires the
	// runtime memory model (samples read zero fill without it, so the
	// trigger is inert on memory-blind runs). Default 0.85.
	MemHigh float64
	// MemHeadroom is passed to the incremental reschedule
	// (IncrementalOptions.MemHeadroom): candidates that keep memory fill
	// under this fraction outrank tight fits. Zero disables the tier —
	// the default, so declared-memory replans are unchanged.
	MemHeadroom float64
	// TrafficObjective, when set, hands the profiler's measured
	// component-pair traffic matrix to imbalance-triggered (consolidation)
	// rebalances: the incremental pass then minimizes measured network
	// cost — Σ rate(a,b)·NetworkDistance(node(a),node(b)) — instead of
	// ref-node distance, which is what lets a cold, spread-out topology
	// consolidate its chatty edges onto shared nodes. Hotspot and memory
	// triggers keep the distance objective: they are escaping overload,
	// not chasing locality. Off by default — plans are byte-identical
	// with the objective unset.
	TrafficObjective bool
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.HighUtil <= 0 {
		c.HighUtil = 0.9
	}
	if c.QueueHigh <= 0 {
		c.QueueHigh = 0.7
	}
	if c.LowUtil <= 0 {
		c.LowUtil = 0.2
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3
	}
	if c.MinWindows <= 0 {
		c.MinWindows = 2
	}
	if c.Margin <= 0 {
		c.Margin = 0.15
	}
	if c.MemHigh <= 0 {
		c.MemHigh = 0.85
	}
	return c
}

// topoState is the controller's per-topology decision state.
type topoState struct {
	priority   int // tenant priority (cluster arbiter ordering/weighting)
	hotStreak  int
	coldStreak int
	memStreak  int
	failStreak int
	cooldown   int  // remaining quiet windows
	quiet      bool // this window falls inside the cooldown
	rebalances int
	totalMoves int
	lastAction string

	// Per-window evaluation scratch, valid only inside OnWindow.
	winSeen    bool
	winHot     bool
	winAllCold bool
	winMemHot  bool
}

// Controller is the feedback half of the adaptive loop: it watches the
// profiler's estimates, applies hysteresis and cooldown, and plans
// incremental rebalances through the R-Storm scheduler. It implements
// simulator.Observer by chaining through its Profiler.
//
// The simulation feeding OnWindow is single-threaded, but controller
// state is also read from other goroutines (the StatisticServer's
// /adaptive route), so all state access is mutex-guarded.
type Controller struct {
	mu       sync.Mutex
	cfg      ControllerConfig
	profiler *Profiler
	sched    *core.ResourceAwareScheduler
	topos    map[string]*topoState
	order    []string

	// nodeMem / nodeMemCap are per-window scratch for node-level resident
	// memory aggregation (the memory-hotspot trigger), reused across
	// flushes. Empty on memory-blind runs: samples carry zero capacity.
	nodeMem    map[cluster.NodeID]float64
	nodeMemCap map[cluster.NodeID]float64
}

// NewController wires a controller over a profiler and scheduler. A nil
// profiler or scheduler gets a default instance.
func NewController(p *Profiler, sched *core.ResourceAwareScheduler, cfg ControllerConfig) *Controller {
	if p == nil {
		p = NewProfiler(ProfilerConfig{})
	}
	if sched == nil {
		sched = core.NewResourceAwareScheduler()
	}
	return &Controller{
		cfg:        cfg.withDefaults(),
		profiler:   p,
		sched:      sched,
		topos:      make(map[string]*topoState),
		nodeMem:    make(map[cluster.NodeID]float64),
		nodeMemCap: make(map[cluster.NodeID]float64),
	}
}

// Profiler exposes the underlying demand profiler.
func (c *Controller) Profiler() *Profiler { return c.profiler }

// SetPriority records a topology's tenant priority for status reporting
// and the cluster arbiter's ordering (the Loop calls this at Manage time).
func (c *Controller) SetPriority(name string, priority int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.topos[name]
	if ts == nil {
		ts = &topoState{}
		c.topos[name] = ts
		c.order = append(c.order, name)
	}
	ts.priority = priority
}

// OnWindow implements simulator.Observer: fold the window into the
// profiler, then update each topology's hot/cold streaks. It runs inside
// the simulator's event loop every metrics window, so it evaluates the
// profiler's estimates in place rather than through the copying accessors.
func (c *Controller) OnWindow(samples []simulator.TaskSample) {
	c.profiler.OnWindow(samples)
	// Partial flushes (mid-window Reassign, trailing Finish) update the
	// estimates but not the decision clocks: a slice of a window is not a
	// window of evidence, and counting it would let hysteresis fire early
	// and cooldowns expire in less real time than configured.
	if !c.profiler.LastFlushFull() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ts := range c.topos {
		ts.winSeen = false
	}
	c.profiler.eachComponent(func(name string, st *ComponentStats) {
		ts := c.topos[name]
		if ts == nil {
			ts = &topoState{}
			c.topos[name] = ts
			c.order = append(c.order, name)
		}
		if !ts.winSeen {
			ts.winSeen = true
			ts.winHot = false
			ts.winAllCold = true
			ts.winMemHot = false
		}
		// Saturation alone is not a hotspot: a fully busy executor on an
		// uncontended node is the pipeline's natural bottleneck and
		// migration cannot speed it up. Placement is at fault — and
		// fixable — only when the host is overcommitted.
		contended := st.MaxSlowdown > 1.001
		if contended && (st.MaxUtilization >= c.cfg.HighUtil || st.QueueFill >= c.cfg.QueueHigh) {
			ts.winHot = true
		}
		if st.MaxUtilization > c.cfg.LowUtil {
			ts.winAllCold = false
		}
	})
	// Memory pass (runtime memory model only): aggregate each node's
	// resident memory across every topology's live tasks, then flag every
	// topology with live tasks on a node filling past MemHigh. Unlike the
	// CPU hotspot, no contention gate applies: memory is the hard axis,
	// and a filling node is placement-fixable (and OOM-bound) regardless
	// of whether anything is slowed down yet.
	for k := range c.nodeMem {
		delete(c.nodeMem, k)
	}
	for k := range c.nodeMemCap {
		delete(c.nodeMemCap, k)
	}
	for i := range samples {
		s := &samples[i]
		if s.Dead || s.NodeMemCapacityMB <= 0 {
			continue
		}
		c.nodeMem[s.Node] += s.ResidentMemMB
		c.nodeMemCap[s.Node] = s.NodeMemCapacityMB
	}
	if len(c.nodeMem) > 0 {
		for i := range samples {
			s := &samples[i]
			if s.Dead || s.NodeMemCapacityMB <= 0 {
				continue
			}
			if c.nodeMem[s.Node] >= c.cfg.MemHigh*c.nodeMemCap[s.Node] {
				if ts := c.topos[s.Topology]; ts != nil {
					ts.winMemHot = true
				}
			}
		}
	}
	for _, name := range c.order {
		ts := c.topos[name]
		if !ts.winSeen {
			continue
		}
		ts.quiet = ts.cooldown > 0
		if ts.cooldown > 0 {
			ts.cooldown--
		}
		if ts.winHot {
			ts.hotStreak++
		} else {
			ts.hotStreak = 0
		}
		if ts.winMemHot {
			ts.memStreak++
		} else {
			ts.memStreak = 0
		}
		if ts.winAllCold && !ts.winHot && !ts.winMemHot {
			ts.coldStreak++
		} else {
			ts.coldStreak = 0
		}
		// Failover has no hysteresis to build: the profiler's crash marks
		// persist until the tasks are restarted, so one window carrying
		// them is a confirmed loss, not a blip to be debounced.
		if c.profiler.crashedCount(name) > 0 {
			ts.failStreak++
		} else {
			ts.failStreak = 0
		}
	}
}

// ShouldRebalance reports whether the named topology has earned a
// rebalance this window, and why.
func (c *Controller) ShouldRebalance(name string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.topos[name]
	if ts == nil {
		return "", false
	}
	// Failover outranks everything and bypasses the quiet/warm-up gates:
	// crashed tasks process nothing until restarted, so every window spent
	// debouncing or cooling down is pure lost throughput — and the trigger
	// disarms itself once the restarts land (live samples clear the crash
	// marks), so it cannot flap the way load triggers can.
	if ts.failStreak >= 1 {
		return TriggerFailover, true
	}
	if ts.quiet || c.profiler.Windows() < c.cfg.MinWindows {
		return "", false
	}
	// Memory outranks the CPU hotspot: the hard axis ends in OOM kills,
	// not slowdown, so a filling node is always the most urgent repair.
	if ts.memStreak >= c.cfg.Hysteresis {
		return TriggerMemory, true
	}
	if ts.hotStreak >= c.cfg.Hysteresis {
		return TriggerHotspot, true
	}
	if ts.coldStreak >= c.cfg.Hysteresis {
		return TriggerImbalance, true
	}
	return "", false
}

// PlanWithCap computes the incremental rebalance for a topology from the
// profiler's measured demands. available is the per-node availability
// *excluding* this topology's own usage (dead nodes zeroed, co-resident
// topologies' load subtracted — see Loop.availabilityFor); nil means the
// topology has the whole cluster to itself. trigger is the
// ShouldRebalance verdict being acted on: an imbalance trigger under
// TrafficObjective plans against the measured traffic matrix. moveCap is
// the cluster arbiter's per-topology share of the global move budget: a
// positive cap bounds this plan's moves on top of (never loosening) the
// configured MaxMoves; zero applies MaxMoves alone. PlanWithCap does not
// mutate controller state; call NotifyRebalanced once the plan has been
// applied (or discarded) so the cooldown starts.
func (c *Controller) PlanWithCap(
	topo *topology.Topology,
	clu *cluster.Cluster,
	current *core.Assignment,
	available map[cluster.NodeID]resource.Vector,
	trigger string,
	moveCap int,
) (*core.Assignment, []core.Move, error) {
	if current == nil {
		return nil, nil, fmt.Errorf("topology %q has no current assignment", topo.Name())
	}
	maxMoves := c.cfg.MaxMoves
	if moveCap > 0 && (maxMoves <= 0 || moveCap < maxMoves) {
		maxMoves = moveCap
	}
	opts := core.IncrementalOptions{
		Demands:     c.profiler.MeasuredDemands(topo),
		Available:   available,
		MaxMoves:    maxMoves,
		Margin:      c.cfg.Margin,
		MemHeadroom: c.cfg.MemHeadroom,
		// Tasks killed by node failures or the OOM killer are dead:
		// pinned in place (nothing is left to migrate) and no longer
		// consuming their node's resources.
		Dead: c.profiler.DeadTasks(topo.Name()),
	}
	if c.cfg.TrafficObjective && trigger == TriggerImbalance {
		opts.Traffic = c.profiler.TrafficMatrix(topo.Name())
	}
	// A failover plan splits the dead set: crash victims become forced
	// restarts (re-placed on live capacity, exempt from the move budget),
	// while OOM-killed tasks — whose death was a resource verdict, not an
	// infrastructure loss — stay pinned dead as on every other trigger.
	if trigger == TriggerFailover {
		if crashed := c.profiler.CrashedTasks(topo.Name()); len(crashed) > 0 {
			opts.Restart = crashed
			still := make(map[int]bool)
			for id := range opts.Dead {
				if !crashed[id] {
					still[id] = true
				}
			}
			opts.Dead = still
		}
	}
	return c.sched.IncrementalReschedule(topo, clu, current, opts)
}

// NotifyRebalanced records an applied (or deliberately empty) rebalance
// and starts the cooldown, resetting the streaks that triggered it.
func (c *Controller) NotifyRebalanced(name string, moves int, trigger string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.topos[name]
	if ts == nil {
		ts = &topoState{}
		c.topos[name] = ts
		c.order = append(c.order, name)
	}
	ts.cooldown = c.cfg.Cooldown
	ts.quiet = true
	ts.hotStreak = 0
	ts.coldStreak = 0
	ts.memStreak = 0
	ts.failStreak = 0
	if moves > 0 {
		ts.rebalances++
		ts.totalMoves += moves
	}
	ts.lastAction = fmt.Sprintf("%s: %d moves", trigger, moves)
}

// TopologyStatus is one topology's controller state snapshot.
type TopologyStatus struct {
	Name       string           `json:"name"`
	Priority   int              `json:"priority"`
	HotStreak  int              `json:"hotStreak"`
	ColdStreak int              `json:"coldStreak"`
	MemStreak  int              `json:"memStreak"`
	FailStreak int              `json:"failStreak"`
	Cooldown   int              `json:"cooldown"`
	Rebalances int              `json:"rebalances"`
	TotalMoves int              `json:"totalMoves"`
	LastAction string           `json:"lastAction,omitempty"`
	Components []ComponentStats `json:"components"`
	// Traffic is the measured component-pair edge-rate matrix;
	// InterNodeFraction is the cumulative share of the topology's tuple
	// deliveries that crossed between nodes.
	Traffic           []EdgeStats `json:"traffic,omitempty"`
	InterNodeFraction float64     `json:"interNodeFraction"`
}

// ControllerStatus is the JSON-friendly snapshot served by the
// StatisticServer's /adaptive route.
type ControllerStatus struct {
	Windows    int              `json:"windows"`
	HighUtil   float64          `json:"highUtil"`
	LowUtil    float64          `json:"lowUtil"`
	QueueHigh  float64          `json:"queueHigh"`
	MemHigh    float64          `json:"memHigh"`
	Hysteresis int              `json:"hysteresis"`
	Cooldown   int              `json:"cooldown"`
	Topologies []TopologyStatus `json:"topologies"`
}

// Status snapshots the controller for operator tooling. Safe to call from
// other goroutines (the StatisticServer's /adaptive route).
func (c *Controller) Status() ControllerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ControllerStatus{
		Windows:    c.profiler.Windows(),
		HighUtil:   c.cfg.HighUtil,
		LowUtil:    c.cfg.LowUtil,
		QueueHigh:  c.cfg.QueueHigh,
		MemHigh:    c.cfg.MemHigh,
		Hysteresis: c.cfg.Hysteresis,
		Cooldown:   c.cfg.Cooldown,
	}
	for _, name := range c.order {
		ts := c.topos[name]
		traffic := c.profiler.EdgeStats(name)
		out.Topologies = append(out.Topologies, TopologyStatus{
			Name:              name,
			Priority:          ts.priority,
			HotStreak:         ts.hotStreak,
			ColdStreak:        ts.coldStreak,
			MemStreak:         ts.memStreak,
			FailStreak:        ts.failStreak,
			Cooldown:          ts.cooldown,
			Rebalances:        ts.rebalances,
			TotalMoves:        ts.totalMoves,
			LastAction:        ts.lastAction,
			Components:        c.profiler.Stats(name),
			Traffic:           traffic,
			InterNodeFraction: edgesInterNodeFraction(traffic),
		})
	}
	return out
}

var _ simulator.Observer = (*Controller)(nil)
