package core

import (
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/resource"
)

// availExcluding returns full capacities with the given nodes zeroed — the
// caller-side convention for dead-node exclusion.
func availExcluding(c *cluster.Cluster, dead ...cluster.NodeID) map[cluster.NodeID]resource.Vector {
	avail := make(map[cluster.NodeID]resource.Vector, c.Size())
	for _, n := range c.Nodes() {
		avail[n.ID] = n.Spec.Capacity
	}
	for _, id := range dead {
		avail[id] = resource.Vector{}
	}
	return avail
}

func TestIncrementalRestartReplacesDeadNodeTasks(t *testing.T) {
	topo := incrTopo(t, 4)
	c := incrCluster(t)
	ids := c.NodeIDs()
	// Spread the chain over three nodes; node ids[1] then dies.
	current := NewAssignment("incr", "r-storm")
	comps := map[string]cluster.NodeID{"s": ids[0], "work": ids[1], "z": ids[2]}
	restart := make(map[int]bool)
	frozen := make(map[int]bool)
	for _, task := range topo.Tasks() {
		current.Place(task.ID, Placement{Node: comps[task.Component], Slot: 0})
		if task.Component == "work" {
			restart[task.ID] = true
		} else {
			// Freeze survivors: this test isolates the restart mechanics
			// (a failover round may well allow improvement moves too).
			frozen[task.ID] = true
		}
	}
	sched := NewResourceAwareScheduler()
	next, moves, err := sched.IncrementalReschedule(topo, c, current, IncrementalOptions{
		Available: availExcluding(c, ids[1]),
		Restart:   restart,
		Frozen:    frozen,
		Margin:    0.15,
	})
	if err != nil {
		t.Fatalf("IncrementalReschedule: %v", err)
	}
	if len(moves) != len(restart) {
		t.Fatalf("moves = %v, want one per restarting task (%d)", moves, len(restart))
	}
	for _, m := range moves {
		if !restart[m.TaskID] {
			t.Errorf("live task %d moved during failover: %v", m.TaskID, m)
		}
		if m.To.Node == ids[1] {
			t.Errorf("task %d restarted on the dead node: %v", m.TaskID, m)
		}
	}
	for _, task := range topo.Tasks() {
		if restart[task.ID] {
			continue
		}
		if next.Placements[task.ID] != current.Placements[task.ID] {
			t.Errorf("surviving task %d displaced: %v -> %v",
				task.ID, current.Placements[task.ID], next.Placements[task.ID])
		}
	}
	if !next.Complete(topo) {
		t.Error("failover assignment incomplete")
	}
}

func TestIncrementalRestartInPlaceRecordsMove(t *testing.T) {
	// After the node recovers (full availability again), a restart may
	// legitimately choose the task's old node — the Move must still be
	// recorded, because the executor needs an explicit restart either way.
	topo := incrTopo(t, 2)
	c := incrCluster(t)
	ids := c.NodeIDs()
	current := NewAssignment("incr", "r-storm")
	restart := make(map[int]bool)
	for _, task := range topo.Tasks() {
		current.Place(task.ID, Placement{Node: ids[0], Slot: 0})
		restart[task.ID] = true
	}
	sched := NewResourceAwareScheduler()
	_, moves, err := sched.IncrementalReschedule(topo, c, current, IncrementalOptions{
		Restart: restart,
		Margin:  0.15,
	})
	if err != nil {
		t.Fatalf("IncrementalReschedule: %v", err)
	}
	if len(moves) != len(restart) {
		t.Fatalf("moves = %d, want %d (every restart recorded, in-place included)",
			len(moves), len(restart))
	}
}

func TestIncrementalRestartStaysDeadWhenNothingFits(t *testing.T) {
	topo := incrTopo(t, 2)
	c := incrCluster(t)
	ids := c.NodeIDs()
	current := NewAssignment("incr", "r-storm")
	restart := make(map[int]bool)
	for _, task := range topo.Tasks() {
		current.Place(task.ID, Placement{Node: ids[0], Slot: 0})
		if task.Component == "work" {
			restart[task.ID] = true
		}
	}
	// Every node zeroed: the cluster has no capacity anywhere.
	sched := NewResourceAwareScheduler()
	next, moves, err := sched.IncrementalReschedule(topo, c, current, IncrementalOptions{
		Available: availExcluding(c, ids...),
		Restart:   restart,
		Margin:    0.15,
	})
	if err != nil {
		t.Fatalf("IncrementalReschedule: %v", err)
	}
	for _, m := range moves {
		if restart[m.TaskID] {
			t.Errorf("restart task %d got a move with zero capacity: %v", m.TaskID, m)
		}
	}
	for id := range restart {
		if next.Placements[id] != current.Placements[id] {
			t.Errorf("unplaceable restart task %d moved", id)
		}
	}
}
