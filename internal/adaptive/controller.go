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

// The controller's policy. Every caller ran these values, so they are
// constants rather than settings.
const (
	// highUtil marks a contended component hot when its EWMA max-task
	// utilization reaches it; queueHigh does the same for its EWMA queue
	// fill (overflow pressure shows up there before utilization does for
	// bursty stages).
	highUtil  = 0.9
	queueHigh = 0.7
	// lowUtil marks a topology imbalanced (over-provisioned) when every
	// component's EWMA utilization is at or below it.
	lowUtil = 0.2
	// hysteresis is the number of consecutive full windows a condition
	// must hold before the controller acts — the anti-flap guard, and the
	// warm-up too: a streak counts full windows only.
	hysteresis = 2
	// cooldown is the number of full windows after a rebalance during
	// which the controller stays quiet, letting estimates re-converge on
	// the new placement before judging it.
	cooldown = 3
	// margin is the stickiness handed to the incremental reschedule.
	margin = 0.15
	// memHeadroom is the incremental reschedule's memory-fill headroom
	// (IncrementalOptions.MemHeadroom), applied once the profiler has seen
	// measured memory: candidates that keep fill under it outrank tight
	// fits, so still-growing state is not placed one window short of an
	// OOM kill. Declared-memory replans keep the plain ordering.
	memHeadroom = 0.8
)

// ControllerConfig holds the two controller settings that differ between
// scenarios.
type ControllerConfig struct {
	// MemHigh marks a topology memory-hot when any node hosting its live
	// tasks has resident memory at or above this fraction of capacity —
	// the early-warning threshold that gets tasks off a filling node
	// before the simulator's OOM killer fires at 1.0. Requires the
	// runtime memory model (samples read zero fill without it, so the
	// trigger is inert on memory-blind runs). Default 0.85.
	MemHigh float64
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
// state may be read from other goroutines (Status is operator tooling),
// so all state access is mutex-guarded.
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
		if contended && (st.MaxUtilization >= highUtil || st.QueueFill >= queueHigh) {
			ts.winHot = true
		}
		if st.MaxUtilization > lowUtil {
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
	// Failover outranks everything and bypasses hysteresis and cooldown:
	// crashed tasks process nothing until restarted, so every window spent
	// debouncing or cooling down is pure lost throughput — and the trigger
	// disarms itself once the restarts land (live samples clear the crash
	// marks), so it cannot flap the way load triggers can.
	if ts.failStreak >= 1 {
		return TriggerFailover, true
	}
	if ts.quiet {
		return "", false
	}
	// Memory outranks the CPU hotspot: the hard axis ends in OOM kills,
	// not slowdown, so a filling node is always the most urgent repair.
	if ts.memStreak >= hysteresis {
		return TriggerMemory, true
	}
	if ts.hotStreak >= hysteresis {
		return TriggerHotspot, true
	}
	if ts.coldStreak >= hysteresis {
		return TriggerImbalance, true
	}
	return "", false
}

// Plan computes the incremental rebalance for a topology from the
// profiler's measured demands. available is the per-node availability
// *excluding* this topology's own usage (dead nodes zeroed, co-resident
// topologies' load subtracted — see Loop.availabilityFor); nil means the
// topology has the whole cluster to itself. trigger is the
// ShouldRebalance verdict being acted on: an imbalance trigger under
// TrafficObjective plans against the measured traffic matrix. Plan does
// not mutate controller state; call NotifyRebalanced once the plan has
// been applied (or discarded) so the cooldown starts.
func (c *Controller) Plan(
	topo *topology.Topology,
	clu *cluster.Cluster,
	current *core.Assignment,
	available map[cluster.NodeID]resource.Vector,
	trigger string,
) (*core.Assignment, []core.Move, error) {
	if current == nil {
		return nil, nil, fmt.Errorf("topology %q has no current assignment", topo.Name())
	}
	opts := core.IncrementalOptions{
		Demands:   c.profiler.MeasuredDemands(topo),
		Available: available,
		Margin:    margin,
		// Tasks killed by node failures or the OOM killer are dead:
		// pinned in place (nothing is left to migrate) and no longer
		// consuming their node's resources.
		Dead: c.profiler.DeadTasks(topo.Name()),
	}
	if c.profiler.measuresMemory() {
		opts.MemHeadroom = memHeadroom
	}
	if c.cfg.TrafficObjective && trigger == TriggerImbalance {
		opts.Traffic = c.profiler.TrafficMatrix(topo.Name())
	}
	// A failover plan splits the dead set: crash victims become forced
	// restarts (re-placed on the best live capacity), while OOM-killed
	// tasks — whose death was a resource verdict, not an infrastructure
	// loss — stay pinned dead as on every other trigger.
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
	ts.cooldown = cooldown
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

// ControllerStatus is the controller's JSON-friendly snapshot for
// operator tooling.
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
// other goroutines.
func (c *Controller) Status() ControllerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := ControllerStatus{
		Windows:    c.profiler.Windows(),
		HighUtil:   highUtil,
		LowUtil:    lowUtil,
		QueueHigh:  queueHigh,
		MemHigh:    c.cfg.MemHigh,
		Hysteresis: hysteresis,
		Cooldown:   cooldown,
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
