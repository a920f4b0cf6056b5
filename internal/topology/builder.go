package topology

import (
	"errors"
	"fmt"
)

// Builder assembles a Topology, mirroring Storm's TopologyBuilder and the
// R-Storm user API of paper §5.2:
//
//	b := topology.NewBuilder("wordcount")
//	b.SetSpout("word", 10).SetMemoryLoad(1024).SetCPULoad(50)
//	b.SetBolt("count", 5).FieldsGrouping("word", "word").SetCPULoad(25)
//	topo, err := b.Build()
type Builder struct {
	name       string
	components map[string]*Component
	order      []string
	streams    []Stream
	workers    int
	maxPending int
	priority   int
	errs       []error
}

// NewBuilder returns a Builder for a topology with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:       name,
		components: make(map[string]*Component),
	}
}

// SetNumWorkers requests a number of worker processes (Storm's
// topology.workers). Zero lets the scheduler decide.
func (b *Builder) SetNumWorkers(n int) *Builder {
	b.workers = n
	return b
}

// SetMaxSpoutPending caps incomplete tuple trees per spout task (Storm's
// topology.max.spout.pending). Zero means "use the cluster default".
func (b *Builder) SetMaxSpoutPending(n int) *Builder {
	b.maxPending = n
	return b
}

// SetPriority sets the topology's scheduling priority (higher wins).
// Zero — the default — means "no priority": equal-priority topologies are
// admitted FIFO and never evict each other.
func (b *Builder) SetPriority(p int) *Builder {
	b.priority = p
	return b
}

// SetSpout declares a spout with the given parallelism hint and returns a
// declarer for attaching resource loads and an execution profile.
func (b *Builder) SetSpout(name string, parallelism int) *SpoutDeclarer {
	c := b.add(name, KindSpout, parallelism)
	return &SpoutDeclarer{declarer{builder: b, component: c}}
}

// SetBolt declares a bolt with the given parallelism hint and returns a
// declarer for attaching input streams, resource loads, and a profile.
func (b *Builder) SetBolt(name string, parallelism int) *BoltDeclarer {
	c := b.add(name, KindBolt, parallelism)
	return &BoltDeclarer{declarer{builder: b, component: c}}
}

func (b *Builder) add(name string, kind Kind, parallelism int) *Component {
	if _, dup := b.components[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("component %q declared twice", name))
	}
	c := &Component{Name: name, Kind: kind, Parallelism: parallelism}
	b.components[name] = c
	b.order = append(b.order, name)
	return c
}

// Build validates the declarations and returns an immutable Topology.
func (b *Builder) Build() (*Topology, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if b.name == "" {
		return nil, errors.New("topology name is empty")
	}
	if len(b.components) == 0 {
		return nil, fmt.Errorf("topology %q has no components", b.name)
	}
	if b.workers < 0 {
		return nil, fmt.Errorf("topology %q: workers %d is negative", b.name, b.workers)
	}
	if b.maxPending < 0 {
		return nil, fmt.Errorf("topology %q: max spout pending %d is negative", b.name, b.maxPending)
	}
	if b.priority < 0 {
		return nil, fmt.Errorf("topology %q: priority %d is negative", b.name, b.priority)
	}

	t := &Topology{
		name:       b.name,
		components: make(map[string]*Component, len(b.components)),
		order:      append([]string(nil), b.order...),
		streams:    append([]Stream(nil), b.streams...),
		workers:    b.workers,
		maxPending: b.maxPending,
		priority:   b.priority,
		taskIndex:  make(map[string][]Task, len(b.components)),
		outgoing:   make(map[string][]Stream),
		incoming:   make(map[string][]Stream),
	}
	for name, c := range b.components {
		cc := *c // copy so later builder mutation cannot alias
		cc.Profile = cc.Profile.withDefaults()
		if err := cc.validate(); err != nil {
			return nil, fmt.Errorf("topology %q: %w", b.name, err)
		}
		t.components[name] = &cc
	}
	for _, s := range t.streams {
		if !s.Grouping.valid() {
			return nil, fmt.Errorf("topology %q: stream %s has invalid grouping", b.name, s)
		}
		if _, ok := t.components[s.From]; !ok {
			return nil, fmt.Errorf("topology %q: stream source %q does not exist", b.name, s.From)
		}
		if _, ok := t.components[s.To]; !ok {
			return nil, fmt.Errorf("topology %q: stream target %q does not exist", b.name, s.To)
		}
		if t.components[s.From] == t.components[s.To] {
			return nil, fmt.Errorf("topology %q: self-loop on %q", b.name, s.From)
		}
		t.outgoing[s.From] = append(t.outgoing[s.From], s)
		t.incoming[s.To] = append(t.incoming[s.To], s)
	}
	// Algorithm 2 depends only on the graph, so it runs once here rather
	// than on every scheduling trial; validateShape reads it as the set of
	// components reachable from a spout.
	t.bfs = bfsOrder(t)
	if err := validateShape(t); err != nil {
		return nil, fmt.Errorf("topology %q: %w", b.name, err)
	}

	// Derive dense task IDs: component insertion order, then index.
	id := 0
	for _, name := range t.order {
		c := t.components[name]
		tasks := make([]Task, 0, c.Parallelism)
		for i := 0; i < c.Parallelism; i++ {
			task := Task{ID: id, Component: name, Index: i}
			tasks = append(tasks, task)
			t.tasks = append(t.tasks, task)
			id++
		}
		t.taskIndex[name] = tasks
	}
	t.bfsTasks = make([][]Task, len(t.bfs))
	for i, name := range t.bfs {
		t.bfsTasks[i] = t.taskIndex[name]
	}
	return t, nil
}

// declarer is the shared half of SpoutDeclarer and BoltDeclarer.
type declarer struct {
	builder   *Builder
	component *Component
}

// setCPULoad records the per-task CPU demand in points (100 ≈ one core).
func (d *declarer) setCPULoad(points float64) { d.component.CPULoad = points }

// setMemoryLoad records the per-task memory demand in MB.
func (d *declarer) setMemoryLoad(mb float64) { d.component.MemoryLoad = mb }

// setBandwidthLoad records the per-task bandwidth demand.
func (d *declarer) setBandwidthLoad(bw float64) { d.component.BandwidthLoad = bw }

// setProfile records the simulated execution profile.
func (d *declarer) setProfile(p ExecProfile) { d.component.Profile = p }

// SpoutDeclarer configures a spout declaration.
type SpoutDeclarer struct{ declarer }

// SetCPULoad sets the per-task CPU demand in points (paper §5.2).
func (d *SpoutDeclarer) SetCPULoad(points float64) *SpoutDeclarer {
	d.setCPULoad(points)
	return d
}

// SetMemoryLoad sets the per-task memory demand in MB (paper §5.2).
func (d *SpoutDeclarer) SetMemoryLoad(mb float64) *SpoutDeclarer {
	d.setMemoryLoad(mb)
	return d
}

// SetBandwidthLoad sets the per-task bandwidth demand.
func (d *SpoutDeclarer) SetBandwidthLoad(bw float64) *SpoutDeclarer {
	d.setBandwidthLoad(bw)
	return d
}

// SetProfile sets the simulated execution profile.
func (d *SpoutDeclarer) SetProfile(p ExecProfile) *SpoutDeclarer {
	d.setProfile(p)
	return d
}

// BoltDeclarer configures a bolt declaration.
type BoltDeclarer struct{ declarer }

// SetCPULoad sets the per-task CPU demand in points (paper §5.2).
func (d *BoltDeclarer) SetCPULoad(points float64) *BoltDeclarer {
	d.setCPULoad(points)
	return d
}

// SetMemoryLoad sets the per-task memory demand in MB (paper §5.2).
func (d *BoltDeclarer) SetMemoryLoad(mb float64) *BoltDeclarer {
	d.setMemoryLoad(mb)
	return d
}

// SetBandwidthLoad sets the per-task bandwidth demand.
func (d *BoltDeclarer) SetBandwidthLoad(bw float64) *BoltDeclarer {
	d.setBandwidthLoad(bw)
	return d
}

// SetProfile sets the simulated execution profile.
func (d *BoltDeclarer) SetProfile(p ExecProfile) *BoltDeclarer {
	d.setProfile(p)
	return d
}

// ShuffleGrouping subscribes this bolt to src with shuffle partitioning.
func (d *BoltDeclarer) ShuffleGrouping(src string) *BoltDeclarer {
	return d.grouping(src, GroupingShuffle, "")
}

// FieldsGrouping subscribes this bolt to src, routing tuples by key.
func (d *BoltDeclarer) FieldsGrouping(src, key string) *BoltDeclarer {
	return d.grouping(src, GroupingFields, key)
}

// GlobalGrouping subscribes this bolt to src, routing every tuple to the
// lowest task.
func (d *BoltDeclarer) GlobalGrouping(src string) *BoltDeclarer {
	return d.grouping(src, GroupingGlobal, "")
}

// AllGrouping subscribes this bolt to src, replicating tuples to all tasks.
func (d *BoltDeclarer) AllGrouping(src string) *BoltDeclarer {
	return d.grouping(src, GroupingAll, "")
}

// LocalOrShuffleGrouping subscribes this bolt to src, preferring tasks in
// the same worker process.
func (d *BoltDeclarer) LocalOrShuffleGrouping(src string) *BoltDeclarer {
	return d.grouping(src, GroupingLocalOrShuffle, "")
}

func (d *BoltDeclarer) grouping(src string, kind GroupingKind, key string) *BoltDeclarer {
	d.builder.streams = append(d.builder.streams, Stream{
		From:      src,
		To:        d.component.Name,
		Grouping:  kind,
		FieldsKey: key,
	})
	return d
}
