package core

import (
	"fmt"
	"sort"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
)

// Move records one task migration decided by an incremental reschedule.
type Move struct {
	TaskID int
	From   Placement
	To     Placement
}

// String implements fmt.Stringer.
func (m Move) String() string {
	return fmt.Sprintf("task %d: %s -> %s", m.TaskID, m.From, m.To)
}

// IncrementalOptions tunes IncrementalReschedule.
type IncrementalOptions struct {
	// Demands overrides per-component, per-task demand vectors — typically
	// the adaptive profiler's *measured* demands, replacing the user's
	// declarations. Components absent from the map fall back to their
	// declared demand.
	Demands map[string]resource.Vector
	// Available is the base availability per node *excluding* this
	// topology's own usage (other topologies' reservations subtracted).
	// Nil means full node capacity.
	Available map[cluster.NodeID]resource.Vector
	// SlotFor resolves a worker slot on a node that currently hosts none
	// of this topology's tasks; a pass asks it at most once per node.
	// Nil defaults to slot 0 (single-topology clusters); Nimbus passes
	// GlobalState.FirstFreeSlot.
	SlotFor func(cluster.NodeID) (int, bool)
	// Frozen pins tasks to their current placement and excludes them from
	// the walk entirely. Frozen tasks still reserve their demand on their
	// node (they are pinned, not gone).
	Frozen map[int]bool
	// Dead marks tasks that no longer consume anything — killed by node
	// failures or the runtime memory model's OOM enforcement. They are
	// implicitly frozen (there is no executor left to migrate), and
	// unlike Frozen their demand is NOT debited from their node: an
	// OOM-killed task's working set is freed and its CPU demand departs,
	// so debiting it would deny survivors a node that in truth has that
	// capacity back.
	Dead map[int]bool
	// Restart marks dead tasks that should be brought back: instead of
	// being pinned as corpses they are force-placed on the best feasible
	// node, with no stickiness margin (there is no live placement to stick
	// to). A restart Move is recorded even when the chosen node is the
	// current one (restart-in-place after the node recovered); if no node
	// is feasible the task stays put, dead, with no Move recorded. Like Dead tasks, their demand is not debited at the
	// current placement — it returns only on the node the walk picks.
	// Callers exclude dead *nodes* the usual way, by zeroing them in
	// Available; Restart wins where it overlaps Dead or Frozen.
	Restart map[int]bool
	// Margin is the relative distance improvement an equally-feasible
	// alternative must offer before a task moves (0.15 = 15% closer).
	// It is the anti-oscillation stickiness of the control loop.
	Margin float64
	// MemHeadroom, when in (0, 1], adds a preferred memory-feasibility
	// tier: a candidate node whose memory fill after placement stays at or
	// below this fraction of its capacity outranks any memory-tight
	// candidate, regardless of distance. Under *measured* (possibly still
	// growing) memory demands this is what keeps a rescheduled task from
	// landing one window short of the next OOM. Zero disables the tier,
	// leaving the feasibility ordering exactly as before.
	MemHeadroom float64
	// Traffic, when non-nil and carrying measured rates, switches the soft
	// objective of the pass from the paper's ref-node distance to a
	// network-cost objective over measured traffic: a candidate node for
	// task a is scored by Σ_b rate(a,b)·NetworkDistance(candidate,
	// node(b)) over the tasks b of adjacent components (planned positions
	// for tasks already walked, current positions otherwise). This
	// generalizes the exact solver's unit-weight pairwise cost (exact.go)
	// to measured edge rates, and is what makes cold-topology
	// consolidation produce moves: the symmetric ref-node distance cannot
	// see that two chatty tasks sit one hop apart. Feasibility tiers and
	// the stickiness margin (applied to the cost) are unchanged; tasks
	// with no measured traffic fall back to the distance objective. Nil (or an empty matrix) leaves the pass exactly as
	// before.
	Traffic *TrafficMatrix
}

// candidate tiers: a node that covers the task's CPU demand outright beats
// any node that would overcommit CPU, regardless of distance. The paper's
// distance is symmetric — slightly-overfull and slightly-underfull look the
// same — which is fine for declared demands (the scheduler never overcommits
// what it believes) but wrong for *measured* demands, where escaping an
// overloaded node is the whole point. With MemHeadroom set, an extra top
// tier prefers nodes that keep memory fill under the headroom fraction —
// the same asymmetry argument applied to the hard axis, where "barely fits
// right now" is one growth window away from an OOM kill.
const (
	tierMemSafe = 1 // CPU covered and memory fill stays under the headroom
	tierCPUFit  = 2 // hard constraints satisfied, CPU demand covered
	tierOver    = 3 // hard constraints satisfied, CPU overcommitted
	tierInvalid = 4 // hard constraint violated
)

// slotChoice is one node's worker slot for the topology being walked:
// resolved once, from the topology's own worker on the node or else from
// IncrementalOptions.SlotFor.
type slotChoice struct {
	slot         int
	ok, resolved bool
}

// trafficNeighbor is one adjacent component seen from a task's component,
// with the measured per-task-pair rate (tuples/sec) of the edge between
// them. Both directions of a stream contribute: distance is symmetric, so
// traffic toward a producer pulls as hard as traffic toward a consumer.
type trafficNeighbor struct {
	comp string
	rate float64
}

// trafficScorer evaluates the measured network-cost objective for one
// IncrementalReschedule pass: cost(task, node) = Σ over tasks u of
// adjacent components rate(task,u) · NetworkDistance(node, node(u)),
// where node(u) is u's planned position if the walk has already decided
// it and its current position otherwise. Component-pair rates are split
// uniformly across the pair's live task pairs — the matrix is measured
// per component (the profiler's EWMA), and a uniform split keeps the
// objective well-defined without per-task-pair bookkeeping.
type trafficScorer struct {
	c         *cluster.Cluster
	nodeOf    []int // task ID → node index, planned-so-far view
	neighbors map[string][]trafficNeighbor
	tasks     map[string][]int // component → live task IDs, dense order
	// w is the per-node rate aggregation for the task currently being
	// walked (prepare): w[n] sums the rates of the task's neighbors
	// sitting on node n, so scoring a candidate is O(nodes) instead of
	// O(neighbor tasks) per candidate.
	w []float64
}

// newTrafficScorer builds the scorer, or returns nil when the matrix is
// absent or carries no signal (the pass then keeps the distance objective).
// at holds each task's current node index, by task ID.
func newTrafficScorer(
	topo *topology.Topology,
	c *cluster.Cluster,
	opts IncrementalOptions,
	at []int,
) *trafficScorer {
	if opts.Traffic.Total() <= 0 {
		return nil
	}
	sc := &trafficScorer{
		c:         c,
		nodeOf:    append([]int(nil), at...),
		neighbors: make(map[string][]trafficNeighbor),
		tasks:     make(map[string][]int),
		w:         make([]float64, c.Size()),
	}
	for _, task := range topo.Tasks() {
		// Dead tasks are pinned corpses: they generate no traffic and must
		// not anchor live neighbors to their node.
		if !opts.Dead[task.ID] {
			sc.tasks[task.Component] = append(sc.tasks[task.Component], task.ID)
		}
	}
	for _, st := range topo.Streams() {
		r := opts.Traffic.Rate(st.From, st.To)
		if r <= 0 {
			continue
		}
		nf, nt := len(sc.tasks[st.From]), len(sc.tasks[st.To])
		if nf == 0 || nt == 0 {
			continue
		}
		perPair := r / float64(nf*nt)
		sc.neighbors[st.From] = append(sc.neighbors[st.From],
			trafficNeighbor{comp: st.To, rate: perPair})
		sc.neighbors[st.To] = append(sc.neighbors[st.To],
			trafficNeighbor{comp: st.From, rate: perPair})
	}
	return sc
}

// prepare folds the task's neighbor traffic into the per-node weight
// vector against the planned-so-far positions. Called once per walked
// task, before its candidate loop; every subsequent cost() is O(nodes).
func (sc *trafficScorer) prepare(task topology.Task) {
	for i := range sc.w {
		sc.w[i] = 0
	}
	for _, ne := range sc.neighbors[task.Component] {
		for _, uid := range sc.tasks[ne.comp] {
			if uid == task.ID {
				continue
			}
			sc.w[sc.nodeOf[uid]] += ne.rate
		}
	}
}

// cost scores placing the prepared task on the node at index i. Zero when
// the task has no measured traffic (callers then fall back to the
// distance objective).
func (sc *trafficScorer) cost(i int) float64 {
	var cost float64
	for n, wn := range sc.w {
		if wn != 0 {
			cost += wn * sc.c.NetworkDistanceAt(i, n)
		}
	}
	return cost
}

// place records the walk's decision for a task, so later tasks score
// against the plan rather than the stale placement.
func (sc *trafficScorer) place(taskID, nodeIdx int) { sc.nodeOf[taskID] = nodeIdx }

// IncrementalReschedule computes a migration-aware improvement of an
// existing assignment: every task keeps its placement unless another node
// is strictly more attractive under the (measured) demands — a stricter
// feasibility tier, or a distance improvement beyond the stickiness margin.
// It reuses R-Storm's node-selection machinery (Algorithm 4's ref-node
// network distance and weighted Euclidean fit) but walks tasks in schedule
// order against the *current* load picture instead of an empty cluster, so
// only the offending tasks move. This is the control-plane alternative to
// Storm's full teardown-and-reschedule rebalance, which restarts every
// worker of the topology.
//
// The returned assignment is complete and disjoint from `current`; moves
// lists the changed placements in task-schedule order.
func (s *ResourceAwareScheduler) IncrementalReschedule(
	topo *topology.Topology,
	c *cluster.Cluster,
	current *Assignment,
	opts IncrementalOptions,
) (*Assignment, []Move, error) {
	if err := s.weights.Validate(); err != nil {
		return nil, nil, fmt.Errorf("scheduler weights: %w", err)
	}
	if err := s.classes.Validate(); err != nil {
		return nil, nil, fmt.Errorf("scheduler classes: %w", err)
	}
	if current == nil || !current.Complete(topo) {
		return nil, nil, fmt.Errorf("incremental reschedule of %q needs a complete current assignment", topo.Name())
	}

	// Per-task state by task ID (IDs are dense) and per-node state by
	// node index, so the walk below touches no map in its node loop.
	nodes := c.Nodes()
	tasks := topo.Tasks()
	demands := make([]resource.Vector, len(tasks)) // measured, else declared
	for _, task := range tasks {
		if d, ok := opts.Demands[task.Component]; ok {
			demands[task.ID] = d
		} else {
			demands[task.ID] = topo.TaskDemand(task)
		}
	}

	// Availability under the measured demands: base minus every task's
	// demand at its current placement. Alongside, this topology's worker
	// slot per node for move targets (the scheduler packs one worker per
	// node per topology), taken from the task with the lowest ID on the
	// node so a node hosting several worker slots (a default-even
	// placement) resolves deterministically.
	avail := make([]resource.Vector, len(nodes))
	for i, n := range nodes {
		if opts.Available != nil {
			avail[i] = opts.Available[n.ID]
		} else {
			avail[i] = n.Spec.Capacity
		}
	}
	at := make([]int, len(tasks)) // current node index
	slots := make([]slotChoice, len(nodes))
	for _, task := range tasks {
		p := current.Placements[task.ID]
		ni, ok := c.Index(p.Node)
		if !ok {
			return nil, nil, fmt.Errorf("task %d currently on unknown node %q", task.ID, p.Node)
		}
		at[task.ID] = ni
		if !slots[ni].resolved {
			slots[ni] = slotChoice{slot: p.Slot, ok: true, resolved: true}
		}
		if opts.Dead[task.ID] || opts.Restart[task.ID] {
			continue
		}
		avail[ni] = avail[ni].Sub(demands[task.ID])
	}
	// slotFor resolves, once per node, a worker slot on a node that hosts
	// none of this topology's tasks. GlobalState does not change during
	// the pass, so neither does the answer.
	slotFor := func(i int) (int, bool) {
		sc := &slots[i]
		if !sc.resolved {
			sc.resolved = true
			if opts.SlotFor != nil {
				sc.slot, sc.ok = opts.SlotFor(nodes[i].ID)
			} else {
				sc.slot, sc.ok = 0, true
			}
		}
		return sc.slot, sc.ok
	}

	// Ref node per Algorithm 4 over the measured availability, fixing the
	// network-distance axis for the whole pass.
	netdist := make([]float64, len(nodes))
	s.refDistances(c, avail, netdist)

	hard := s.classes.Hard()
	tierOf := func(i int, a, d resource.Vector) int {
		if !hard.Satisfies(a, d) {
			return tierInvalid
		}
		if a.CPU >= d.CPU {
			// The headroom tier needs the node's memory capacity: the
			// availability vector alone cannot express "fill fraction",
			// being capacity minus everyone's usage.
			if memCap := nodes[i].Spec.Capacity.MemoryMB; opts.MemHeadroom > 0 && memCap > 0 &&
				memCap-(a.MemoryMB-d.MemoryMB) <= opts.MemHeadroom*memCap {
				return tierMemSafe
			}
			return tierCPUFit
		}
		return tierOver
	}

	// Walk tasks in descending measured-demand order (stable within ties,
	// so equal-demand tasks keep the BFS schedule order): the biggest
	// offenders escape an overloaded node first, and once they have
	// drained it below capacity the small tasks see a feasible home and
	// stay put — which is what keeps the move count minimal.
	size := make([]float64, len(tasks))
	for id, d := range demands {
		size[id] = s.weights.Apply(d).Total()
	}
	order := s.appendOrder(nil, topo)
	sort.SliceStable(order, func(i, j int) bool {
		return size[order[i].ID] > size[order[j].ID]
	})

	// With a traffic matrix, the soft objective becomes the measured
	// network cost; without one (or without signal) scorer is nil and the
	// pass scores by ref-node distance exactly as before.
	scorer := newTrafficScorer(topo, c, opts, at)

	next := NewAssignment(topo.Name(), s.Name()+"-incremental")
	var moves []Move
	for _, task := range order {
		cur := current.Placements[task.ID]
		restart := opts.Restart[task.ID]
		if !restart && (opts.Frozen[task.ID] || opts.Dead[task.ID]) {
			next.Place(task.ID, cur)
			continue
		}
		d := demands[task.ID]
		ci := at[task.ID]
		// Lift the task off its node, then judge every node — including
		// its own — from the resulting availability. A restarting task was
		// never debited (it is dead), so there is nothing to lift.
		if !restart {
			avail[ci] = avail[ci].Add(d)
		}
		if scorer != nil {
			scorer.prepare(task)
		}
		best, bestTier, bestDist, bestCost := -1, tierInvalid+1, 0.0, 0.0
		for i := range avail {
			tier := tierOf(i, avail[i], d)
			if tier == tierInvalid {
				continue
			}
			if _, ok := slotFor(i); !ok {
				continue
			}
			dist := resource.Distance(d, avail[i], netdist[i], s.weights)
			var cost float64
			if scorer != nil {
				cost = scorer.cost(i)
			}
			better := tier < bestTier
			if tier == bestTier {
				if scorer != nil {
					// Traffic objective: network cost first; the paper's
					// distance only splits cost ties, so zero-traffic tasks
					// (cost 0 everywhere) keep the distance behavior.
					better = cost < bestCost || (cost == bestCost && dist < bestDist)
				} else {
					better = dist < bestDist
				}
			}
			if better {
				best, bestTier, bestDist, bestCost = i, tier, dist, cost
			}
		}
		if restart {
			if best < 0 {
				// Nowhere feasible: the task stays where it died, and no
				// Move is recorded — callers learn the restart failed by
				// its absence from moves.
				next.Place(task.ID, cur)
				continue
			}
			// Forced placement: best node wins outright, restart-in-place
			// included.
			avail[best] = avail[best].Sub(d)
			if scorer != nil {
				scorer.place(task.ID, best)
			}
			slot, _ := slotFor(best)
			to := Placement{Node: nodes[best].ID, Slot: slot}
			next.Place(task.ID, to)
			moves = append(moves, Move{TaskID: task.ID, From: cur, To: to})
			continue
		}
		chosen := ci
		if best >= 0 && best != ci {
			curTier := tierOf(ci, avail[ci], d)
			curDist := resource.Distance(d, avail[ci], netdist[ci], s.weights)
			var improves bool
			if scorer != nil {
				curCost := scorer.cost(ci)
				improves = bestTier < curTier || (bestTier == curTier &&
					(bestCost < curCost*(1-opts.Margin) ||
						(bestCost == curCost && bestDist < curDist*(1-opts.Margin))))
			} else {
				improves = bestTier < curTier ||
					(bestTier == curTier && bestDist < curDist*(1-opts.Margin))
			}
			if improves {
				chosen = best
			}
		}
		avail[chosen] = avail[chosen].Sub(d)
		if scorer != nil {
			scorer.place(task.ID, chosen)
		}
		if chosen == ci {
			next.Place(task.ID, cur)
			continue
		}
		slot, _ := slotFor(chosen)
		to := Placement{Node: nodes[chosen].ID, Slot: slot}
		next.Place(task.ID, to)
		moves = append(moves, Move{TaskID: task.ID, From: cur, To: to})
	}
	return next, moves, nil
}
