package cluster

import (
	"fmt"

	"rstorm/internal/resource"
)

// Cluster is an immutable description of racks, nodes, and the network
// model. Build one with a Builder or a preset.
//
// Every node has an index, its position in declaration order, and every
// rack an index, its position in Racks. Build resolves both once, so
// per-node state elsewhere (GlobalState, the scheduler's working set) can
// live in slices addressed by node index instead of maps keyed by NodeID.
type Cluster struct {
	nodes     []*Node // declaration order: nodes[i] has index i
	index     map[NodeID]int
	rackOf    []int // node index -> rack index
	racks     []RackID
	rackNodes map[RackID][]NodeID
	network   NetworkModel
}

// Builder assembles a Cluster.
type Builder struct {
	nodes   []*Node
	network NetworkModel
	errs    []error
}

// NewBuilder returns a Builder using the default network model.
func NewBuilder() *Builder {
	return &Builder{network: DefaultNetworkModel()}
}

// SetNetworkModel overrides the network model.
func (b *Builder) SetNetworkModel(m NetworkModel) *Builder {
	b.network = m
	return b
}

// AddNode declares a node on a rack.
func (b *Builder) AddNode(id NodeID, rack RackID, spec NodeSpec) *Builder {
	if id == "" {
		b.errs = append(b.errs, fmt.Errorf("node with empty ID"))
		return b
	}
	if rack == "" {
		b.errs = append(b.errs, fmt.Errorf("node %q has empty rack", id))
		return b
	}
	b.nodes = append(b.nodes, &Node{ID: id, Rack: rack, Spec: spec.withDefaults()})
	return b
}

// Build validates the declarations and returns the Cluster.
func (b *Builder) Build() (*Cluster, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if len(b.nodes) == 0 {
		return nil, fmt.Errorf("cluster has no nodes")
	}
	if err := b.network.validate(); err != nil {
		return nil, fmt.Errorf("network model: %w", err)
	}
	c := &Cluster{
		index:     make(map[NodeID]int, len(b.nodes)),
		rackNodes: make(map[RackID][]NodeID),
		network:   b.network,
	}
	rackIndex := make(map[RackID]int)
	for _, n := range b.nodes {
		if _, dup := c.index[n.ID]; dup {
			return nil, fmt.Errorf("node %q declared twice", n.ID)
		}
		if err := n.Spec.validate(); err != nil {
			return nil, fmt.Errorf("node %q: %w", n.ID, err)
		}
		nn := *n
		c.index[n.ID] = len(c.nodes)
		c.nodes = append(c.nodes, &nn)
		r, seen := rackIndex[n.Rack]
		if !seen {
			r = len(c.racks)
			rackIndex[n.Rack] = r
			c.racks = append(c.racks, n.Rack)
		}
		c.rackOf = append(c.rackOf, r)
		c.rackNodes[n.Rack] = append(c.rackNodes[n.Rack], n.ID)
	}
	return c, nil
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id NodeID) *Node {
	if i, ok := c.index[id]; ok {
		return c.nodes[i]
	}
	return nil
}

// Index returns the node's index, its position in declaration order, and
// whether the node exists.
func (c *Cluster) Index(id NodeID) (int, bool) {
	i, ok := c.index[id]
	return i, ok
}

// NodeAt returns the node at index i. The value is shared and must be
// treated as read-only.
func (c *Cluster) NodeAt(i int) *Node { return c.nodes[i] }

// RackIndex returns the position in Racks of the rack holding the node at
// index i.
func (c *Cluster) RackIndex(i int) int { return c.rackOf[i] }

// Nodes returns every node in declaration order. Node values are shared
// and must be treated as read-only.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// NodeIDs returns node IDs in declaration order.
func (c *Cluster) NodeIDs() []NodeID {
	out := make([]NodeID, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.ID
	}
	return out
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// RackCount returns the number of racks.
func (c *Cluster) RackCount() int { return len(c.racks) }

// Racks returns rack IDs in first-seen order.
func (c *Cluster) Racks() []RackID {
	out := make([]RackID, len(c.racks))
	copy(out, c.racks)
	return out
}

// NodesInRack returns the node IDs on a rack, in declaration order.
func (c *Cluster) NodesInRack(rack RackID) []NodeID {
	src := c.rackNodes[rack]
	out := make([]NodeID, len(src))
	copy(out, src)
	return out
}

// Network returns the cluster's network model.
func (c *Cluster) Network() NetworkModel { return c.network }

// NetworkDistance returns the scheduler-visible distance between two nodes:
// 0 for the same node, the intra-rack distance within a rack, and the
// inter-rack distance across racks. Unknown nodes are treated as maximally
// distant.
func (c *Cluster) NetworkDistance(a, b NodeID) float64 {
	if a == b {
		return c.network.DistanceIntraNode
	}
	i, okA := c.index[a]
	j, okB := c.index[b]
	if !okA || !okB {
		return c.network.DistanceInterRack
	}
	return c.NetworkDistanceAt(i, j)
}

// NetworkDistanceAt is NetworkDistance between the nodes at indexes i and
// j.
func (c *Cluster) NetworkDistanceAt(i, j int) float64 {
	switch {
	case i == j:
		return c.network.DistanceIntraNode
	case c.rackOf[i] == c.rackOf[j]:
		return c.network.DistanceIntraRack
	}
	return c.network.DistanceInterRack
}

// PathBetween classifies the network path between two placements.
// sameWorker matters only when both tasks share a node.
func (c *Cluster) PathBetween(a, b NodeID, sameWorker bool) PathLevel {
	if a == b {
		if sameWorker {
			return PathIntraProcess
		}
		return PathInterProcess
	}
	i, okA := c.index[a]
	j, okB := c.index[b]
	if okA && okB && c.rackOf[i] == c.rackOf[j] {
		return PathInterNode
	}
	return PathInterRack
}

// TotalCapacity sums the capacity of every node.
func (c *Cluster) TotalCapacity() resource.Vector {
	var total resource.Vector
	for _, n := range c.nodes {
		total = total.Add(n.Spec.Capacity)
	}
	return total
}

// RackCapacity sums the capacity of every node on a rack.
func (c *Cluster) RackCapacity(rack RackID) resource.Vector {
	var total resource.Vector
	for _, id := range c.rackNodes[rack] {
		total = total.Add(c.Node(id).Spec.Capacity)
	}
	return total
}
