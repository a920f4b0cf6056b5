package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
	"rstorm/internal/topology"
)

// propScenario is one randomized IncrementalReschedule input: a random
// chain topology, a random (possibly infeasible) current placement,
// random measured demands, and random knobs — everything derived from the
// scenario seed, so failures reproduce exactly.
type propScenario struct {
	seed    int64
	topo    *topology.Topology
	c       *cluster.Cluster
	current *Assignment
	opts    IncrementalOptions
}

// genScenario derives a scenario from its seed. withTraffic additionally
// equips the options with a random measured traffic matrix, switching the
// pass to the network-cost objective.
func genScenario(t *testing.T, seed int64, withTraffic bool) propScenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nStages := 3 + rng.Intn(3)
	b := topology.NewBuilder(fmt.Sprintf("prop-%d", seed))
	prev := ""
	var comps []string
	for i := 0; i < nStages; i++ {
		name := fmt.Sprintf("c%d", i)
		par := 1 + rng.Intn(4)
		cpu := 5 + rng.Float64()*80
		mem := 32 + rng.Float64()*700
		if i == 0 {
			b.SetSpout(name, par).SetCPULoad(cpu).SetMemoryLoad(mem)
		} else {
			bb := b.SetBolt(name, par).SetCPULoad(cpu).SetMemoryLoad(mem)
			if rng.Intn(2) == 0 {
				bb.ShuffleGrouping(prev)
			} else {
				bb.FieldsGrouping(prev, "key")
			}
		}
		comps = append(comps, name)
		prev = name
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("seed %d: Build: %v", seed, err)
	}
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	ids := c.NodeIDs()

	current := NewAssignment(topo.Name(), "random")
	for _, task := range topo.Tasks() {
		current.Place(task.ID, Placement{Node: ids[rng.Intn(len(ids))], Slot: 0})
	}

	demands := make(map[string]resource.Vector)
	for _, name := range comps {
		if rng.Intn(3) == 0 {
			continue // this component keeps its declared demand
		}
		demands[name] = resource.Vector{
			CPU:       1 + rng.Float64()*119,
			MemoryMB:  16 + rng.Float64()*900,
			Bandwidth: rng.Float64() * 20,
		}
	}
	frozen := make(map[int]bool)
	dead := make(map[int]bool)
	for _, task := range topo.Tasks() {
		switch rng.Intn(8) {
		case 0:
			frozen[task.ID] = true
		case 1:
			dead[task.ID] = true
		}
	}
	opts := IncrementalOptions{
		Demands:     demands,
		Frozen:      frozen,
		Dead:        dead,
		Margin:      []float64{0, 0.15, 0.3}[rng.Intn(3)],
		MemHeadroom: []float64{0, 0.8}[rng.Intn(2)],
	}
	if withTraffic {
		m := NewTrafficMatrix()
		for _, st := range topo.Streams() {
			m.Set(st.From, st.To, 0.5+rng.Float64()*1000)
		}
		opts.Traffic = m
	}
	return propScenario{seed: seed, topo: topo, c: c, current: current, opts: opts}
}

// measuredDemand mirrors the pass's demand resolution: measured if
// present, declared otherwise.
func (sc propScenario) measuredDemand(task topology.Task) resource.Vector {
	if d, ok := sc.opts.Demands[task.Component]; ok {
		return d
	}
	return sc.topo.TaskDemand(task)
}

// TestIncrementalRescheduleInvariants fuzzes the pass across seeded random
// inputs under both objectives and asserts the invariants no input may
// break: completeness, pinned frozen/dead tasks, faithful
// move records, hard-axis feasibility of every move target (with dead
// demand NOT debited — live-only accounting), and determinism.
func TestIncrementalRescheduleInvariants(t *testing.T) {
	for _, objective := range []struct {
		name        string
		withTraffic bool
	}{
		{"distance", false},
		{"traffic", true},
	} {
		t.Run(objective.name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				sc := genScenario(t, seed, objective.withTraffic)
				sched := NewResourceAwareScheduler()
				next, moves, err := sched.IncrementalReschedule(sc.topo, sc.c, sc.current, sc.opts)
				if err != nil {
					t.Fatalf("seed %d: IncrementalReschedule: %v", seed, err)
				}

				// Completeness: every task placed on a known node.
				if !next.Complete(sc.topo) {
					t.Fatalf("seed %d: incomplete assignment", seed)
				}

				// Frozen and dead tasks are pinned.
				for id := range sc.opts.Frozen {
					if next.Placements[id] != sc.current.Placements[id] {
						t.Errorf("seed %d: frozen task %d moved", seed, id)
					}
				}
				for id := range sc.opts.Dead {
					if next.Placements[id] != sc.current.Placements[id] {
						t.Errorf("seed %d: dead task %d moved", seed, id)
					}
				}

				// Moves describe exactly the diff between current and next.
				moved := make(map[int]bool, len(moves))
				for _, m := range moves {
					moved[m.TaskID] = true
					if sc.current.Placements[m.TaskID] != m.From {
						t.Errorf("seed %d: move %v has stale From", seed, m)
					}
					if next.Placements[m.TaskID] != m.To {
						t.Errorf("seed %d: move %v not reflected in assignment", seed, m)
					}
					if m.From == m.To {
						t.Errorf("seed %d: no-op move %v recorded", seed, m)
					}
				}
				for id, p := range sc.current.Placements {
					if !moved[id] && next.Placements[id] != p {
						t.Errorf("seed %d: task %d moved without a Move record", seed, id)
					}
				}

				// Hard axis: any node that received a move ends with its
				// *live* measured memory within capacity. Dead tasks do not
				// count — their demand must never be debited (the working
				// set died with them), which is exactly what lets survivors
				// take that capacity.
				targets := make(map[cluster.NodeID]bool)
				for _, m := range moves {
					targets[m.To.Node] = true
				}
				liveMem := make(map[cluster.NodeID]float64)
				for _, task := range sc.topo.Tasks() {
					if sc.opts.Dead[task.ID] {
						continue
					}
					liveMem[next.Placements[task.ID].Node] += sc.measuredDemand(task).MemoryMB
				}
				for node := range targets {
					if cap := sc.c.Node(node).Spec.Capacity.MemoryMB; liveMem[node] > cap+1e-9 {
						t.Errorf("seed %d: move target %s at %.1f MB exceeds capacity %.1f",
							seed, node, liveMem[node], cap)
					}
				}

				// Determinism: the same scenario replans identically.
				sc2 := genScenario(t, seed, objective.withTraffic)
				next2, moves2, err := NewResourceAwareScheduler().
					IncrementalReschedule(sc2.topo, sc2.c, sc2.current, sc2.opts)
				if err != nil {
					t.Fatalf("seed %d: replay: %v", seed, err)
				}
				if !reflect.DeepEqual(next.Placements, next2.Placements) || !reflect.DeepEqual(moves, moves2) {
					t.Errorf("seed %d: replan diverged", seed)
				}
			}
		})
	}
}

// TestIncrementalTrafficDeadNodeNotDebited is the traffic-objective twin
// of TestIncrementalDeadTasksFreeTheirNode: with the network-cost
// objective active, a dead task's phantom demand must still not be
// debited from its node, and the dead task itself must neither move nor
// attract traffic (a live neighbor consolidates toward live tasks, not
// toward the corpse).
func TestIncrementalTrafficDeadNodeNotDebited(t *testing.T) {
	topo := incrTopo(t, 2)
	c := incrCluster(t)
	sched := NewResourceAwareScheduler()
	ids := c.NodeIDs()

	current := NewAssignment("incr", "manual")
	var workIDs []int
	for _, task := range topo.Tasks() {
		if task.Component == "work" {
			workIDs = append(workIDs, task.ID)
		}
		current.Place(task.ID, Placement{Node: ids[0], Slot: 0})
	}
	deadID, liveID := workIDs[0], workIDs[1]
	current.Place(deadID, Placement{Node: ids[1], Slot: 0})
	demands := map[string]resource.Vector{
		"work": {CPU: 10, MemoryMB: 1800},
	}
	avail := map[cluster.NodeID]resource.Vector{
		ids[0]: c.Node(ids[0]).Spec.Capacity,
		ids[1]: c.Node(ids[1]).Spec.Capacity,
	}
	m := NewTrafficMatrix()
	m.Set("s", "work", 500)
	m.Set("work", "z", 500)
	next, moves, err := sched.IncrementalReschedule(topo, c, current, IncrementalOptions{
		Demands:   demands,
		Available: avail,
		Margin:    0.15,
		Dead:      map[int]bool{deadID: true},
		Traffic:   m,
	})
	if err != nil {
		t.Fatalf("IncrementalReschedule: %v", err)
	}
	if got := next.Placements[deadID]; got != current.Placements[deadID] {
		t.Errorf("dead task moved to %v; it must stay pinned", got)
	}
	if got := next.Placements[liveID]; got.Node != ids[1] {
		t.Errorf("live work task on %v, want the dead task's freed node %v (moves: %v)",
			got.Node, ids[1], moves)
	}
}
