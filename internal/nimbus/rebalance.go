package nimbus

import (
	"fmt"
	"sort"
)

// RebalanceTopology tears down a topology's current assignment and
// schedules it afresh at the next round — Storm's `rebalance` command.
// Useful after cluster membership grows: a topology squeezed onto few
// nodes can spread back out.
func (n *Nimbus) RebalanceTopology(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.topologies[name]; !ok {
		return fmt.Errorf("topology %q is not submitted", name)
	}
	n.state.Remove(name)
	_ = n.store.Delete(assignmentsPath + "/" + name)
	n.dropPendingLocked(name)
	n.pending = append(n.pending, name)
	n.logf("rebalance requested for %q", name)
	return nil
}

// ClusterSummary is a point-in-time view of scheduling state for
// operator tooling.
type ClusterSummary struct {
	AliveSupervisors int                 `json:"aliveSupervisors"`
	Topologies       []TopologySummary   `json:"topologies"`
	Pending          []string            `json:"pending"`
	NodeAvailable    map[string]Capacity `json:"nodeAvailable"`
	// Evictions is the master's eviction history, oldest first.
	Evictions []EvictionEvent `json:"evictions,omitempty"`
}

// TopologySummary summarizes one scheduled topology.
type TopologySummary struct {
	Name      string `json:"name"`
	Scheduler string `json:"scheduler"`
	Tasks     int    `json:"tasks"`
	Nodes     int    `json:"nodes"`
	Workers   int    `json:"workers"`
	// Priority is the tenant's scheduling priority (zero = none).
	Priority int `json:"priority"`
}

// Capacity is the JSON form of a resource vector.
type Capacity struct {
	CPU       float64 `json:"cpu"`
	MemoryMB  float64 `json:"memoryMb"`
	Bandwidth float64 `json:"bandwidth"`
}

// Summary builds the current cluster summary.
func (n *Nimbus) Summary() ClusterSummary {
	out := ClusterSummary{
		AliveSupervisors: len(n.AliveSupervisors()),
		Pending:          n.Pending(),
		NodeAvailable:    make(map[string]Capacity, n.cluster.Size()),
		Evictions:        n.Evictions(),
	}
	for id, v := range n.state.AvailableAll() {
		out.NodeAvailable[string(id)] = Capacity{
			CPU:       v.CPU,
			MemoryMB:  v.MemoryMB,
			Bandwidth: v.Bandwidth,
		}
	}
	n.mu.Lock()
	names := make([]string, 0, len(n.topologies))
	for name := range n.topologies {
		names = append(names, name)
	}
	n.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		a := n.state.Assignment(name)
		if a == nil {
			continue
		}
		n.mu.Lock()
		topo := n.topologies[name]
		n.mu.Unlock()
		if topo == nil {
			continue
		}
		out.Topologies = append(out.Topologies, TopologySummary{
			Name:      name,
			Scheduler: a.Scheduler,
			Tasks:     topo.TotalTasks(),
			Nodes:     len(a.NodesUsed()),
			Workers:   a.WorkersUsed(),
			Priority:  n.TopologyPriority(name),
		})
	}
	return out
}
