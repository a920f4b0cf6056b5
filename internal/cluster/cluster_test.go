package cluster

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rstorm/internal/resource"
)

func mustEmulab12(t *testing.T) *Cluster {
	t.Helper()
	c, err := Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	return c
}

func TestEmulab12Shape(t *testing.T) {
	c := mustEmulab12(t)
	if c.Size() != 12 {
		t.Errorf("size = %d, want 12", c.Size())
	}
	racks := c.Racks()
	if len(racks) != 2 {
		t.Fatalf("racks = %v", racks)
	}
	for _, r := range racks {
		if got := len(c.NodesInRack(r)); got != 6 {
			t.Errorf("rack %s has %d nodes, want 6", r, got)
		}
	}
	n := c.Nodes()[0]
	if n.Spec.Capacity.CPU != 100 || n.Spec.Capacity.MemoryMB != 2048 {
		t.Errorf("node spec = %v", n.Spec.Capacity)
	}
	if n.Spec.Slots != 4 || n.Spec.NICMbps != 100 {
		t.Errorf("defaults not applied: %+v", n.Spec)
	}
}

func TestEmulab24Shape(t *testing.T) {
	c, err := Emulab24()
	if err != nil {
		t.Fatalf("Emulab24: %v", err)
	}
	if c.Size() != 24 || len(c.Racks()) != 2 {
		t.Errorf("size=%d racks=%d", c.Size(), len(c.Racks()))
	}
}

func TestNetworkDistance(t *testing.T) {
	c := mustEmulab12(t)
	ids := c.NodeIDs()
	sameRackA, sameRackB := ids[0], ids[1] // node-0-0, node-0-1
	otherRack := ids[6]                    // node-1-0

	if d := c.NetworkDistance(sameRackA, sameRackA); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	if d := c.NetworkDistance(sameRackA, sameRackB); d != 1 {
		t.Errorf("intra-rack distance = %v, want 1", d)
	}
	if d := c.NetworkDistance(sameRackA, otherRack); d != 2 {
		t.Errorf("inter-rack distance = %v, want 2", d)
	}
	if d := c.NetworkDistance(sameRackA, "ghost"); d != 2 {
		t.Errorf("unknown node distance = %v, want max", d)
	}
}

func TestPathBetween(t *testing.T) {
	c := mustEmulab12(t)
	ids := c.NodeIDs()
	tests := []struct {
		name       string
		a, b       NodeID
		sameWorker bool
		want       PathLevel
	}{
		{"same worker", ids[0], ids[0], true, PathIntraProcess},
		{"same node different worker", ids[0], ids[0], false, PathInterProcess},
		{"same rack", ids[0], ids[1], false, PathInterNode},
		{"other rack", ids[0], ids[6], false, PathInterRack},
		{"unknown node treated as far", ids[0], "ghost", false, PathInterRack},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := c.PathBetween(tt.a, tt.b, tt.sameWorker); got != tt.want {
				t.Errorf("PathBetween = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPathLevelOrderingMatchesPaperInsight(t *testing.T) {
	// §4: inter-rack slowest, then inter-node, inter-process, and
	// intra-process fastest.
	m := DefaultNetworkModel()
	if !(m.Latency(PathIntraProcess) < m.Latency(PathInterProcess) &&
		m.Latency(PathInterProcess) < m.Latency(PathInterNode) &&
		m.Latency(PathInterNode) < m.Latency(PathInterRack)) {
		t.Fatalf("latency hierarchy violated: %+v", m)
	}
	if PathIntraProcess.CrossesNetwork() || PathInterProcess.CrossesNetwork() {
		t.Error("local paths must not consume NIC bandwidth")
	}
	if !PathInterNode.CrossesNetwork() || !PathInterRack.CrossesNetwork() {
		t.Error("remote paths must consume NIC bandwidth")
	}
}

func TestCapacities(t *testing.T) {
	c := mustEmulab12(t)
	total := c.TotalCapacity()
	if total.CPU != 1200 || total.MemoryMB != 12*2048 {
		t.Errorf("total capacity = %v", total)
	}
	rack := c.RackCapacity(c.Racks()[0])
	if rack.CPU != 600 {
		t.Errorf("rack capacity = %v", rack)
	}
	if got := c.RackCapacity("ghost"); !got.IsZero() {
		t.Errorf("unknown rack capacity = %v, want zero", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name    string
		build   func() (*Cluster, error)
		wantSub string
	}{
		{
			name: "empty cluster",
			build: func() (*Cluster, error) {
				return NewBuilder().Build()
			},
			wantSub: "no nodes",
		},
		{
			name: "duplicate node",
			build: func() (*Cluster, error) {
				return NewBuilder().
					AddNode("a", "r", NodeSpec{Capacity: resource.Vector{CPU: 1}}).
					AddNode("a", "r", NodeSpec{Capacity: resource.Vector{CPU: 1}}).
					Build()
			},
			wantSub: "declared twice",
		},
		{
			name: "empty node id",
			build: func() (*Cluster, error) {
				return NewBuilder().AddNode("", "r", NodeSpec{}).Build()
			},
			wantSub: "empty ID",
		},
		{
			name: "empty rack",
			build: func() (*Cluster, error) {
				return NewBuilder().AddNode("a", "", NodeSpec{}).Build()
			},
			wantSub: "empty rack",
		},
		{
			name: "negative capacity",
			build: func() (*Cluster, error) {
				return NewBuilder().
					AddNode("a", "r", NodeSpec{Capacity: resource.Vector{CPU: -5}}).
					Build()
			},
			wantSub: "negative",
		},
		{
			name: "bad network model",
			build: func() (*Cluster, error) {
				m := DefaultNetworkModel()
				m.DistanceIntraRack = 5
				m.DistanceInterRack = 1
				return NewBuilder().
					SetNetworkModel(m).
					AddNode("a", "r", NodeSpec{}).
					Build()
			},
			wantSub: "exceeds inter-rack",
		},
		{
			name: "zero racks preset",
			build: func() (*Cluster, error) {
				return TwoRack(0, 5, EmulabNodeSpec())
			},
			wantSub: "at least one rack",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := tt.build()
			if err == nil {
				t.Fatal("Build succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestNegativeLatencyRejected(t *testing.T) {
	m := DefaultNetworkModel()
	m.LatencyInterRack = -time.Millisecond
	_, err := NewBuilder().SetNetworkModel(m).AddNode("a", "r", NodeSpec{}).Build()
	if err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestQuickNetworkDistanceSymmetric(t *testing.T) {
	c := mustEmulab12(t)
	ids := c.NodeIDs()
	f := func(i, j uint8) bool {
		a := ids[int(i)%len(ids)]
		b := ids[int(j)%len(ids)]
		return c.NetworkDistance(a, b) == c.NetworkDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceTriangleOverRacks(t *testing.T) {
	// With the two-level hierarchy, distance satisfies the triangle
	// inequality: d(a,c) <= d(a,b) + d(b,c).
	c := mustEmulab12(t)
	ids := c.NodeIDs()
	f := func(i, j, k uint8) bool {
		a := ids[int(i)%len(ids)]
		b := ids[int(j)%len(ids)]
		cc := ids[int(k)%len(ids)]
		return c.NetworkDistance(a, cc) <= c.NetworkDistance(a, b)+c.NetworkDistance(b, cc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessorsCopy(t *testing.T) {
	c := mustEmulab12(t)
	ids := c.NodeIDs()
	ids[0] = "mutated"
	if c.NodeIDs()[0] == "mutated" {
		t.Error("NodeIDs returned aliased slice")
	}
	racks := c.Racks()
	racks[0] = "mutated"
	if c.Racks()[0] == "mutated" {
		t.Error("Racks returned aliased slice")
	}
	inRack := c.NodesInRack(c.Racks()[0])
	inRack[0] = "mutated"
	if c.NodesInRack(c.Racks()[0])[0] == "mutated" {
		t.Error("NodesInRack returned aliased slice")
	}
}

func TestStringers(t *testing.T) {
	c := mustEmulab12(t)
	n := c.Nodes()[0]
	if !strings.Contains(n.String(), string(n.ID)) {
		t.Errorf("node string = %q", n.String())
	}
	for _, p := range []PathLevel{PathIntraProcess, PathInterProcess, PathInterNode, PathInterRack, PathLevel(99)} {
		if p.String() == "" {
			t.Errorf("empty string for %d", int(p))
		}
	}
}

func TestNodeLookup(t *testing.T) {
	c := mustEmulab12(t)
	id := c.NodeIDs()[3]
	if n := c.Node(id); n == nil || n.ID != id {
		t.Errorf("Node(%s) = %v", id, n)
	}
	if n := c.Node("ghost"); n != nil {
		t.Errorf("Node(ghost) = %v, want nil", n)
	}
}

// TestIndexes checks the index-addressed accessors against the ID-keyed
// ones on a cluster whose racks interleave in declaration order.
func TestIndexes(t *testing.T) {
	spec := NodeSpec{Capacity: resource.Vector{CPU: 100, MemoryMB: 1024}}
	c, err := NewBuilder().
		AddNode("a", "r1", spec).AddNode("b", "r0", spec).
		AddNode("c", "r1", spec).AddNode("d", "r2", spec).Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.RackCount() != 3 {
		t.Errorf("RackCount = %d, want 3", c.RackCount())
	}
	racks := c.Racks()
	for i, id := range c.NodeIDs() {
		if got, ok := c.Index(id); !ok || got != i {
			t.Errorf("Index(%s) = %d, %v; want %d", id, got, ok, i)
		}
		if n := c.NodeAt(i); n.ID != id {
			t.Errorf("NodeAt(%d) = %s, want %s", i, n.ID, id)
		}
		if r := racks[c.RackIndex(i)]; r != c.Node(id).Rack {
			t.Errorf("rack of %s = %s, want %s", id, r, c.Node(id).Rack)
		}
		for j, other := range c.NodeIDs() {
			if got, want := c.NetworkDistanceAt(i, j), c.NetworkDistance(id, other); got != want {
				t.Errorf("NetworkDistanceAt(%d, %d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if _, ok := c.Index("ghost"); ok {
		t.Error("Index(ghost) reports a node")
	}
}
