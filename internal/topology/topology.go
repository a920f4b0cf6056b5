package topology

import (
	"fmt"

	"rstorm/internal/resource"
)

// Task is one parallel instance of a component — the schedulable unit
// (paper §2: "Tasks - A Storm job that is an instantiation of a Spout or
// Bolt").
type Task struct {
	// ID is the task's unique index within its topology, dense in
	// [0, TotalTasks).
	ID int
	// Component is the owning component's name.
	Component string
	// Index is the task's index within its component, in
	// [0, Parallelism).
	Index int
}

// String implements fmt.Stringer.
func (t Task) String() string {
	return fmt.Sprintf("%s[%d]#%d", t.Component, t.Index, t.ID)
}

// Topology is an immutable, validated computation graph. Build one with a
// Builder.
type Topology struct {
	name       string
	components map[string]*Component
	order      []string // component insertion order, for determinism
	streams    []Stream
	workers    int
	maxPending int
	priority   int

	tasks     []Task
	taskIndex map[string][]Task // component name -> its tasks
	outgoing  map[string][]Stream
	incoming  map[string][]Stream

	// bfs is Algorithm 2's component ordering and bfsTasks each of those
	// components' tasks (taskIndex's slices), both fixed by Build.
	bfs      []string
	bfsTasks [][]Task
}

// Name returns the topology's name.
func (t *Topology) Name() string { return t.name }

// NumWorkers returns the requested number of worker processes (Storm's
// topology.workers). Zero means "let the scheduler decide".
func (t *Topology) NumWorkers() int { return t.workers }

// MaxSpoutPending returns the per-spout-task cap on incomplete tuple trees
// (Storm's topology.max.spout.pending). Zero means "use the cluster
// default".
func (t *Topology) MaxSpoutPending() int { return t.maxPending }

// Priority returns the topology's scheduling priority (Storm's
// topology.priority, inverted: here higher wins). The multi-tenant control
// plane admits pending topologies in descending priority and may evict
// lower-priority tenants to make room for a higher-priority arrival. Zero
// — the default — means "no priority": with every topology at zero the
// cluster pass degenerates to FIFO admission and never evicts.
func (t *Topology) Priority() int { return t.priority }

// Component returns the named component, or nil if absent.
func (t *Topology) Component(name string) *Component {
	return t.components[name]
}

// Components returns all components in insertion order. The slice is fresh;
// the *Component values are shared and must be treated as read-only.
func (t *Topology) Components() []*Component {
	out := make([]*Component, 0, len(t.order))
	for _, name := range t.order {
		out = append(out, t.components[name])
	}
	return out
}

// ComponentNames returns component names in insertion order.
func (t *Topology) ComponentNames() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Spouts returns the spout components in insertion order.
func (t *Topology) Spouts() []*Component {
	var out []*Component
	for _, name := range t.order {
		if c := t.components[name]; c.Kind == KindSpout {
			out = append(out, c)
		}
	}
	return out
}

// Sinks returns the components with no outgoing streams — the "output
// bolts" whose arrival rate defines topology throughput in the paper's
// evaluation (§6.2).
func (t *Topology) Sinks() []*Component {
	var out []*Component
	for _, name := range t.order {
		if len(t.outgoing[name]) == 0 {
			out = append(out, t.components[name])
		}
	}
	return out
}

// Streams returns every stream in declaration order.
func (t *Topology) Streams() []Stream {
	out := make([]Stream, len(t.streams))
	copy(out, t.streams)
	return out
}

// Outgoing returns the streams produced by the named component.
func (t *Topology) Outgoing(name string) []Stream {
	src := t.outgoing[name]
	out := make([]Stream, len(src))
	copy(out, src)
	return out
}

// Incoming returns the streams consumed by the named component.
func (t *Topology) Incoming(name string) []Stream {
	src := t.incoming[name]
	out := make([]Stream, len(src))
	copy(out, src)
	return out
}

// Tasks returns every task of the topology, ordered by component insertion
// order then task index. Task IDs are dense and stable.
func (t *Topology) Tasks() []Task {
	out := make([]Task, len(t.tasks))
	copy(out, t.tasks)
	return out
}

// TasksOf returns the tasks of the named component in index order.
func (t *Topology) TasksOf(component string) []Task {
	src := t.taskIndex[component]
	out := make([]Task, len(src))
	copy(out, src)
	return out
}

// TotalTasks returns the number of tasks across all components.
func (t *Topology) TotalTasks() int { return len(t.tasks) }

// TaskDemand returns the resource demand vector of the given task.
func (t *Topology) TaskDemand(task Task) resource.Vector {
	c := t.components[task.Component]
	if c == nil {
		return resource.Vector{}
	}
	return c.Demand()
}

// TotalDemand returns the combined demand of every task in the topology.
func (t *Topology) TotalDemand() resource.Vector {
	var total resource.Vector
	for _, name := range t.order {
		total = total.Add(t.components[name].TotalDemand())
	}
	return total
}

// BFSOrder returns the component ordering of Algorithm 2
// (BFSTopologyTraversal), computed once by Build (see bfsOrder). The slice
// is fresh.
func (t *Topology) BFSOrder() []string {
	out := make([]string, len(t.bfs))
	copy(out, t.bfs)
	return out
}

// BFSTasks returns the tasks of each component in BFSOrder, each in index
// order, without copying: the outer and inner slices are shared by every
// caller and must be treated as read-only.
func (t *Topology) BFSTasks() [][]Task { return t.bfsTasks }

// bfsOrder implements Algorithm 2 (BFSTopologyTraversal): a breadth-first
// traversal over the downstream adjacency starting from the spouts,
// returning a component ordering in which adjacent components appear in
// close succession. With multiple spouts, all spouts seed the queue in
// insertion order, matching "we start traversing the topology starting from
// the spouts" (§4.1.1). Cycles are handled by the visited set, so the
// traversal is not limited to acyclic topologies (§7).
func bfsOrder(t *Topology) []string {
	visited := make(map[string]bool, len(t.order))
	queue := make([]string, 0, len(t.order))
	out := make([]string, 0, len(t.order))

	for _, name := range t.order {
		if t.components[name].Kind == KindSpout {
			queue = append(queue, name)
			visited[name] = true
			out = append(out, name)
		}
	}
	for len(queue) > 0 {
		com := queue[0]
		queue = queue[1:]
		for _, s := range t.outgoing[com] {
			if !visited[s.To] {
				visited[s.To] = true
				queue = append(queue, s.To)
				out = append(out, s.To)
			}
		}
	}
	// Build rejects a topology whose traversal misses a component, so on
	// a built topology out covers every component.
	return out
}

// AdjacentPairs returns every (producer, consumer) component pair, useful
// for measuring how well a schedule colocates communicating components.
func (t *Topology) AdjacentPairs() [][2]string {
	out := make([][2]string, 0, len(t.streams))
	for _, s := range t.streams {
		out = append(out, [2]string{s.From, s.To})
	}
	return out
}
