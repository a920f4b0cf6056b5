package adaptive

import (
	"fmt"
	"sort"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/resource"
	"rstorm/internal/simulator"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
)

// LoopConfig tunes the epoch driver.
type LoopConfig struct {
	// Interval is the control epoch: how much virtual time passes between
	// controller evaluations. Zero defaults to the simulator's metrics
	// window (every flushed window is a decision point).
	Interval time.Duration
	// FlapDamping embargoes a recovered node for this many control epochs
	// after it transitions dead→live: its availability keeps reading zero,
	// so neither failover restarts nor improvement moves land on hardware
	// that may still be flapping. Zero disables damping (a recovered node
	// is eligible immediately), preserving prior behaviour.
	FlapDamping int
	// Profiler and Controller configure the estimation and policy halves.
	Profiler   ProfilerConfig
	Controller ControllerConfig
	// Journal, when set, receives the loop's decision events
	// (trigger-fired, plan-computed, rebalance-applied) at epoch virtual
	// time — one causally-ordered stream with the simulator's and
	// Nimbus's events when they share the journal (DESIGN.md §8). Nil
	// disables journaling with no other behavior change.
	Journal *trace.Journal
}

// RebalanceEvent records one applied mid-run rebalance.
type RebalanceEvent struct {
	At       time.Duration `json:"at"`
	Topology string        `json:"topology"`
	Trigger  string        `json:"trigger"`
	Moves    int           `json:"moves"`
	// Priority is the topology's tenant priority at the time of the
	// rebalance (the arbiter serves higher priorities first).
	Priority int `json:"priority"`
}

// LoopResult bundles a finished adaptive run.
type LoopResult struct {
	// Result is the simulation's output.
	Result *simulator.Result
	// Events are the rebalances applied, in virtual-time order.
	Events []RebalanceEvent
	// Assignments are the final placements per topology.
	Assignments map[string]*core.Assignment
	// Status is the controller's end-of-run snapshot.
	Status ControllerStatus
}

// TotalMoves sums migrations across all rebalances.
func (r *LoopResult) TotalMoves() int {
	var n int
	for _, e := range r.Events {
		n += e.Moves
	}
	return n
}

// Loop drives a simulation in pause/reassign/resume epochs: it runs the
// simulator one control interval at a time, lets the controller judge the
// freshly profiled window, and applies incremental rebalances between
// epochs. Across topologies it is the cluster arbiter (DESIGN.md §6):
// instead of independent per-topology control loops racing for the same
// nodes, one epoch evaluation collects every triggered topology and serves
// them in descending tenant priority. The whole loop is deterministic for
// a fixed simulator seed.
type Loop struct {
	sim     *simulator.Simulation
	cluster *cluster.Cluster
	ctrl    *Controller
	cfg     LoopConfig
	guard   *FlapGuard

	names   []string
	topos   map[string]*topology.Topology
	current map[string]*core.Assignment
}

// NewLoop builds a Loop over a prepared (not yet started) simulation.
// sched is the scheduler used for incremental replanning; nil defaults to
// a fresh R-Storm scheduler.
func NewLoop(
	sim *simulator.Simulation,
	clu *cluster.Cluster,
	sched *core.ResourceAwareScheduler,
	cfg LoopConfig,
) *Loop {
	if cfg.Interval <= 0 {
		cfg.Interval = sim.Config().MetricsWindow
	}
	ctrl := NewController(NewProfiler(cfg.Profiler), sched, cfg.Controller)
	return &Loop{
		sim:     sim,
		cluster: clu,
		ctrl:    ctrl,
		cfg:     cfg,
		guard:   NewFlapGuard(cfg.FlapDamping),
		topos:   make(map[string]*topology.Topology),
		current: make(map[string]*core.Assignment),
	}
}

// Controller exposes the loop's controller (for status endpoints).
func (l *Loop) Controller() *Controller { return l.ctrl }

// Manage registers a topology the loop may rebalance, at the priority the
// topology itself declares: the arbiter serves triggered topologies in
// descending priority. The topology must already be added to the
// simulation with the same assignment.
func (l *Loop) Manage(topo *topology.Topology, a *core.Assignment) error {
	name := topo.Name()
	if _, dup := l.topos[name]; dup {
		return fmt.Errorf("topology %q already managed", name)
	}
	if a == nil || !a.Complete(topo) {
		return fmt.Errorf("topology %q needs a complete assignment", name)
	}
	l.names = append(l.names, name)
	l.topos[name] = topo
	l.current[name] = a
	l.ctrl.SetPriority(name, topo.Priority())
	return nil
}

// Run executes the adaptive loop to the simulation's configured duration.
func (l *Loop) Run() (*LoopResult, error) {
	if len(l.names) == 0 {
		return nil, fmt.Errorf("no topologies managed")
	}
	if err := l.sim.SetObserver(l.ctrl); err != nil {
		return nil, err
	}
	if err := l.sim.Start(); err != nil {
		return nil, err
	}
	duration := l.sim.Config().Duration
	var events []RebalanceEvent
	for t := l.cfg.Interval; t < duration; t += l.cfg.Interval {
		if err := l.sim.RunTo(t); err != nil {
			return nil, err
		}
		applied, err := l.arbitrate(t)
		if err != nil {
			return nil, err
		}
		events = append(events, applied...)
	}
	res, err := l.sim.Finish()
	if err != nil {
		return nil, err
	}
	return l.buildResult(res, events), nil
}

// arbitrate is one cluster-level control decision: collect every
// triggered topology, order by descending tenant priority (managed order
// within a priority), and apply their rebalances in that order — each
// plans against the placements the ones before it left.
func (l *Loop) arbitrate(t time.Duration) ([]RebalanceEvent, error) {
	// One guard tick per epoch, before any planning: dead→live
	// transitions observed here open this epoch's embargo window.
	l.guard.Observe(l.sim.DeadNodes())
	type claim struct {
		name     string
		trigger  string
		priority int
	}
	var claims []claim
	for _, name := range l.names {
		trigger, ok := l.ctrl.ShouldRebalance(name)
		if !ok {
			continue
		}
		claims = append(claims, claim{name: name, trigger: trigger, priority: l.topos[name].Priority()})
		l.journalRecord(t, trace.CodeTriggerFired, name, trigger)
	}
	if len(claims) == 0 {
		return nil, nil
	}
	sort.SliceStable(claims, func(i, j int) bool {
		return claims[i].priority > claims[j].priority
	})

	var events []RebalanceEvent
	for _, cl := range claims {
		topo := l.topos[cl.name]
		next, moves, err := l.ctrl.Plan(topo, l.cluster, l.current[cl.name],
			l.availabilityFor(cl.name), cl.trigger)
		if err != nil {
			return nil, fmt.Errorf("planning rebalance of %q: %w", cl.name, err)
		}
		l.journalRecord(t, trace.CodePlanComputed, cl.name,
			fmt.Sprintf("trigger=%s planned=%d", cl.trigger, len(moves)))
		migrated := 0
		if len(moves) > 0 {
			// ReassignRestarting reports how many tasks actually moved
			// or restarted (a plan may relocate dead tasks, which have
			// nothing to migrate) and normalizes the assignment to what
			// it applied. Only a failover plan restarts: crash-dead tasks
			// that received a forced placement (a Move — its absence
			// means no live node could fit the task, which then stays
			// dead and re-arms the trigger) are revived there.
			var restart map[int]bool
			if cl.trigger == TriggerFailover {
				crashed := l.ctrl.Profiler().CrashedTasks(cl.name)
				restart = make(map[int]bool, len(moves))
				for _, m := range moves {
					if crashed[m.TaskID] {
						restart[m.TaskID] = true
					}
				}
			}
			migrated, err = l.sim.ReassignRestarting(cl.name, next, restart)
			if err != nil {
				return nil, fmt.Errorf("applying rebalance of %q: %w", cl.name, err)
			}
			l.current[cl.name] = next
			if migrated > 0 {
				events = append(events, RebalanceEvent{
					At:       t,
					Topology: cl.name,
					Trigger:  cl.trigger,
					Moves:    migrated,
					Priority: cl.priority,
				})
				l.journalRecord(t, trace.CodeRebalanceApplied, cl.name,
					fmt.Sprintf("trigger=%s moves=%d", cl.trigger, migrated))
			}
		}
		// Cooldown starts either way: a plan with no moves means the
		// current placement is the best the measured demands allow,
		// and re-planning every window would be churn.
		l.ctrl.NotifyRebalanced(cl.name, migrated, cl.trigger)
	}
	return events, nil
}

// journalRecord appends a loop decision event at epoch virtual time if a
// journal is configured.
func (l *Loop) journalRecord(at time.Duration, code, topo, detail string) {
	if l.cfg.Journal != nil {
		l.cfg.Journal.Record(at, code, topo, "", -1, detail)
	}
}

// availabilityFor builds the replanner's base availability for one
// topology: full node capacities, minus every *other* managed topology's
// load at its measured (falling back to declared) demands, with nodes
// killed by failure injection zeroed out so no migration targets them.
// The planned topology's own usage is subtracted by the incremental pass
// itself.
func (l *Loop) availabilityFor(excl string) map[cluster.NodeID]resource.Vector {
	avail := make(map[cluster.NodeID]resource.Vector, l.cluster.Size())
	for _, n := range l.cluster.Nodes() {
		avail[n.ID] = n.Spec.Capacity
	}
	for _, id := range l.sim.DeadNodes() {
		avail[id] = resource.Vector{}
	}
	// Recovered-but-embargoed nodes read as dead until the flap-damping
	// hold expires: capacity a flapping node offers is not capacity.
	for _, id := range l.guard.Embargoed() {
		avail[id] = resource.Vector{}
	}
	for _, name := range l.names {
		if name == excl {
			continue
		}
		topo := l.topos[name]
		cur := l.current[name]
		demands := l.ctrl.Profiler().MeasuredDemands(topo)
		dead := l.ctrl.Profiler().DeadTasks(name)
		for _, task := range topo.Tasks() {
			// A dead task consumes nothing on its node: OOM kills free the
			// working set and the node's contention is refrozen without it,
			// so subtracting its component's (live-task) demand would
			// understate the node to every other topology's replan.
			if dead[task.ID] {
				continue
			}
			d, ok := demands[task.Component]
			if !ok {
				d = topo.TaskDemand(task)
			}
			if p, ok := cur.PlacementOf(task.ID); ok {
				avail[p.Node] = avail[p.Node].Sub(d)
			}
		}
	}
	return avail
}

func (l *Loop) buildResult(res *simulator.Result, events []RebalanceEvent) *LoopResult {
	return &LoopResult{
		Result:      res,
		Events:      events,
		Assignments: l.current,
		Status:      l.ctrl.Status(),
	}
}
