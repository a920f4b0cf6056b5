package rstorm_test

import (
	"testing"
	"time"

	"rstorm"
	"rstorm/internal/workloads"
)

// TestIntegrationMasterFailureRescheduleSimulate drives the whole stack
// through the public API: a 24-node cluster, supervisors joining through
// the state store, two production topologies scheduled by Nimbus, a
// supervisor failure repaired by the failure detector's incremental
// failover, and a joint simulation of the final placements.
func TestIntegrationMasterFailureRescheduleSimulate(t *testing.T) {
	c, err := rstorm.Emulab24()
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	n, err := rstorm.NewNimbus(c, rstorm.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("nimbus: %v", err)
	}
	supervisors := make(map[rstorm.NodeID]*rstorm.Supervisor)
	for _, id := range c.NodeIDs() {
		sv, err := n.StartSupervisor(id)
		if err != nil {
			t.Fatalf("supervisor %s: %v", id, err)
		}
		supervisors[id] = sv
	}

	pageload, err := workloads.PageLoadTopology()
	if err != nil {
		t.Fatal(err)
	}
	processing, err := workloads.ProcessingTopologyScaled(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTopology(pageload); err != nil {
		t.Fatal(err)
	}
	if err := n.SubmitTopology(processing); err != nil {
		t.Fatal(err)
	}
	if scheduled := n.Tick(); len(scheduled) != 2 {
		t.Fatalf("scheduled %v, want both", scheduled)
	}

	// R-Storm segregates the topologies: they share no nodes.
	plNodes := map[rstorm.NodeID]bool{}
	for _, node := range n.Assignment("pageload").NodesUsed() {
		plNodes[node] = true
	}
	for _, node := range n.Assignment("processing").NodesUsed() {
		if plNodes[node] {
			t.Errorf("topologies share node %s", node)
		}
	}

	// Kill a node hosting processing tasks; the next master cycle must
	// restart processing's tasks off it while pageload keeps its
	// placement.
	victim := n.Assignment("processing").NodesUsed()[0]
	plBefore := n.Assignment("pageload")
	if err := supervisors[victim].Fail(); err != nil {
		t.Fatalf("fail: %v", err)
	}
	n.Tick()
	failovers := n.Failovers()
	if len(failovers) != 1 || failovers[0].Topology != "processing" ||
		failovers[0].Requeued || failovers[0].Moves == 0 {
		t.Fatalf("failovers %+v, want one incremental repair of processing", failovers)
	}
	if n.Assignment("pageload") != plBefore {
		t.Error("pageload was disturbed by an unrelated failure")
	}
	for id, p := range n.Assignment("processing").Placements {
		if p.Node == victim {
			t.Errorf("task %d still on failed node", id)
		}
	}

	// The surviving placements execute cleanly together.
	sim, err := rstorm.NewSimulation(c, rstorm.SimConfig{
		Duration:      8 * time.Second,
		MetricsWindow: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*rstorm.Topology{pageload, processing} {
		if err := sim.AddTopology(topo, n.Assignment(topo.Name())); err != nil {
			t.Fatalf("add %s: %v", topo.Name(), err)
		}
	}
	result, err := sim.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"pageload", "processing"} {
		tr := result.Topology(name)
		if tr.TuplesDelivered == 0 {
			t.Errorf("%s delivered nothing", name)
		}
		if tr.MeanSinkThroughput <= 0 {
			t.Errorf("%s throughput %v", name, tr.MeanSinkThroughput)
		}
	}
}

// TestIntegrationSchedulerComparisonProperty checks, across every built-in
// workload, the paper's core claims at the schedule level: R-Storm never
// violates hard memory constraints and never uses more nodes than default
// Storm.
func TestIntegrationSchedulerComparisonProperty(t *testing.T) {
	c, err := rstorm.Emulab12()
	if err != nil {
		t.Fatal(err)
	}
	builds := map[string]func() (*rstorm.Topology, error){
		"linear-net":      func() (*rstorm.Topology, error) { return workloads.LinearTopology(workloads.NetworkBound) },
		"linear-compute":  func() (*rstorm.Topology, error) { return workloads.LinearTopology(workloads.ComputeBound) },
		"diamond-net":     func() (*rstorm.Topology, error) { return workloads.DiamondTopology(workloads.NetworkBound) },
		"diamond-compute": func() (*rstorm.Topology, error) { return workloads.DiamondTopology(workloads.ComputeBound) },
		"star-net":        func() (*rstorm.Topology, error) { return workloads.StarTopology(workloads.NetworkBound) },
		"star-compute":    func() (*rstorm.Topology, error) { return workloads.StarTopology(workloads.ComputeBound) },
		"pageload":        workloads.PageLoadTopology,
		"processing":      workloads.ProcessingTopology,
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			topo, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ra, err := rstorm.NewResourceAwareScheduler().Schedule(topo, c, rstorm.NewGlobalState(c))
			if err != nil {
				t.Fatalf("r-storm: %v", err)
			}
			ea, err := rstorm.NewEvenScheduler().Schedule(topo, c, rstorm.NewGlobalState(c))
			if err != nil {
				t.Fatalf("even: %v", err)
			}
			for node, used := range ra.UsedPerNode(topo) {
				if capa := c.Node(node).Spec.Capacity; used.MemoryMB > capa.MemoryMB {
					t.Errorf("r-storm memory violation on %s: %v", node, used)
				}
			}
			// Star-compute is the deliberate exception: its worker
			// hint makes default pack densely (and overload CPU),
			// so default uses fewer nodes there — the Fig. 9c story.
			if name != "star-compute" {
				if len(ra.NodesUsed()) > len(ea.NodesUsed()) {
					t.Errorf("r-storm uses %d nodes, default %d",
						len(ra.NodesUsed()), len(ea.NodesUsed()))
				}
				if ra.NetworkCost(topo, c) > ea.NetworkCost(topo, c) {
					t.Errorf("r-storm network cost %v exceeds default %v",
						ra.NetworkCost(topo, c), ea.NetworkCost(topo, c))
				}
			}
		})
	}
}
