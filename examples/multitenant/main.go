// Multitenant: drive the full master-daemon workflow of the paper's §6.5 —
// a 24-node cluster, supervisors joining, two production topologies
// submitted to Nimbus, periodic master cycles, a node failure, and the
// failure detector's repair — then simulate both topologies together.
package main

import (
	"fmt"
	"log"
	"time"

	"rstorm"
	"rstorm/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	c, err := rstorm.Emulab24()
	if err != nil {
		return err
	}
	n, err := rstorm.NewNimbus(c, rstorm.NewResourceAwareScheduler())
	if err != nil {
		return err
	}

	// Supervisors join; only then do their resources count (§5: machines
	// send their resource availability to Nimbus).
	supervisors := make(map[rstorm.NodeID]*rstorm.Supervisor, c.Size())
	for _, id := range c.NodeIDs() {
		sv, err := n.StartSupervisor(id)
		if err != nil {
			return err
		}
		supervisors[id] = sv
	}
	fmt.Printf("cluster up: %d supervisors registered\n", len(n.AliveSupervisors()))

	pageload, err := workloads.PageLoadTopology()
	if err != nil {
		return err
	}
	processing, err := workloads.ProcessingTopologyScaled(2)
	if err != nil {
		return err
	}
	if err := n.SubmitTopology(pageload); err != nil {
		return err
	}
	if err := n.SubmitTopology(processing); err != nil {
		return err
	}
	scheduled := n.Tick() // one periodic master cycle
	fmt.Printf("scheduling round placed: %v\n", scheduled)
	for _, name := range scheduled {
		a := n.Assignment(name)
		fmt.Printf("  %-12s %2d nodes, %2d workers\n", name, len(a.NodesUsed()), a.WorkersUsed())
	}

	// A machine dies: its supervisor session expires, and the next master
	// cycle's failure detector declares it dead and restarts only its
	// tasks on the survivors. The others heartbeat as usual.
	victim := n.Assignment("processing").NodesUsed()[0]
	fmt.Printf("\nkilling supervisor on %s...\n", victim)
	if err := supervisors[victim].Fail(); err != nil {
		return err
	}
	for id, sv := range supervisors {
		if id != victim {
			if err := sv.Heartbeat(); err != nil {
				return err
			}
		}
	}
	n.Tick()
	for _, f := range n.Failovers() {
		fmt.Printf("failover of %s: %d tasks restarted off %s\n", f.Topology, f.Moves, f.Node)
	}
	for id, p := range n.Assignment("processing").Placements {
		if p.Node == victim {
			return fmt.Errorf("task %d still on dead node", id)
		}
	}
	fmt.Println("no tasks remain on the failed node")

	// Execute both topologies together on the surviving 23 nodes.
	sim, err := rstorm.NewSimulation(c, rstorm.SimConfig{
		Duration:      30 * time.Second,
		MetricsWindow: 10 * time.Second,
	})
	if err != nil {
		return err
	}
	for _, topo := range []*rstorm.Topology{pageload, processing} {
		if err := sim.AddTopology(topo, n.Assignment(topo.Name())); err != nil {
			return err
		}
	}
	result, err := sim.Run()
	if err != nil {
		return err
	}
	fmt.Printf("\nafter %v simulated:\n", result.Duration)
	for _, name := range []string{"pageload", "processing"} {
		tr := result.Topology(name)
		fmt.Printf("  %-12s %10.0f tuples/10s, latency %v\n",
			name, tr.MeanSinkThroughput, tr.MeanLatency)
	}

	fmt.Println("\nmaster event log:")
	for _, e := range n.Events() {
		fmt.Println("  -", e)
	}
	return nil
}
