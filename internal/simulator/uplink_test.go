package simulator

import (
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/topology"
)

// crossRackPair builds a 2-rack cluster with one node per rack and a
// spout→sink topology pinned across the rack boundary, so every tuple
// crosses the uplink.
func crossRackRun(t *testing.T, uplinkMbps float64, tupleBytes, maxPending int) float64 {
	t.Helper()
	model := cluster.DefaultNetworkModel()
	model.InterRackMbps = uplinkMbps
	c, err := cluster.NewBuilder().
		SetNetworkModel(model).
		AddNode("a", "rack-a", cluster.EmulabNodeSpec()).
		AddNode("b", "rack-b", cluster.EmulabNodeSpec()).
		Build()
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	b := topology.NewBuilder("wire")
	b.SetMaxSpoutPending(maxPending)
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 5 * time.Microsecond, TupleBytes: tupleBytes})
	b.SetBolt("d", 1).ShuffleGrouping("s").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 5 * time.Microsecond, TupleBytes: tupleBytes})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	a := core.NewAssignment("wire", "manual")
	a.Place(0, core.Placement{Node: "a", Slot: 0})
	a.Place(1, core.Placement{Node: "b", Slot: 0})

	sim, err := New(c, Config{Duration: 10 * time.Second, MetricsWindow: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res.Topology("wire").MeanSinkThroughput
}

func TestUplinkBandwidthCapsInterRackThroughput(t *testing.T) {
	// With a 10 Mbps uplink and 1 KB tuples, the pipe sustains ~1220
	// tuples/s even though the 100 Mbps NICs could do ~12k.
	slow := crossRackRun(t, 10, 1024, 4096)
	perSec := slow // window = 1s
	if perSec < 900 || perSec > 1400 {
		t.Errorf("10 Mbps uplink throughput = %.0f tuples/s, want ~1220", perSec)
	}
	// Quadrupling the uplink roughly quadruples throughput while the
	// uplink remains the bottleneck.
	faster := crossRackRun(t, 40, 1024, 4096)
	if ratio := faster / slow; ratio < 3 || ratio > 5 {
		t.Errorf("4x uplink => ratio %.2f, want ~4", ratio)
	}
}

func TestUnlimitedUplinkFallsBackToNIC(t *testing.T) {
	// InterRackMbps = 0 disables the uplink stage; the NIC (100 Mbps,
	// ~12.2k tuples/s at 1 KB) becomes the cap.
	unlimited := crossRackRun(t, 0, 1024, 4096)
	if unlimited < 10000 || unlimited > 13500 {
		t.Errorf("NIC-bound throughput = %.0f tuples/s, want ~12200", unlimited)
	}
}

func TestMaxPendingBoundsThroughputAcrossLatency(t *testing.T) {
	// Closed-loop flow control: with a tiny pending window and a 2 ms
	// one-way inter-rack latency, throughput ≈ pending / RTT-ish, far
	// below bandwidth limits. Doubling pending ~doubles throughput.
	p4 := crossRackRun(t, 0, 64, 4)
	p8 := crossRackRun(t, 0, 64, 8)
	if p4 <= 0 {
		t.Fatal("no throughput")
	}
	if ratio := p8 / p4; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("2x pending => ratio %.2f, want ~2", ratio)
	}
	// Sanity: latency-bound means well under the NIC's ~190k tuples/s
	// capacity for 64 B tuples.
	if p8 > 20000 {
		t.Errorf("throughput %.0f looks bandwidth-bound, want latency-bound", p8)
	}
}

func TestTupleTimeoutExpiresSlowTuples(t *testing.T) {
	// A timeout far below the path latency expires everything: emitted
	// flows but nothing counts as delivered.
	model := cluster.DefaultNetworkModel()
	model.LatencyInterRack = 50 * time.Millisecond
	c, err := cluster.NewBuilder().
		SetNetworkModel(model).
		AddNode("a", "rack-a", cluster.EmulabNodeSpec()).
		AddNode("b", "rack-b", cluster.EmulabNodeSpec()).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	b := topology.NewBuilder("late")
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: time.Millisecond, TupleBytes: 64})
	b.SetBolt("d", 1).ShuffleGrouping("s").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: time.Millisecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment("late", "manual")
	a.Place(0, core.Placement{Node: "a", Slot: 0})
	a.Place(1, core.Placement{Node: "b", Slot: 0})
	sim, err := New(c, Config{
		Duration:      5 * time.Second,
		MetricsWindow: time.Second,
		TupleTimeout:  10 * time.Millisecond, // below the 50 ms hop
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Topology("late")
	if tr.TuplesEmitted == 0 {
		t.Fatal("nothing emitted")
	}
	if tr.TuplesDelivered != 0 {
		t.Errorf("delivered %d, want 0 (all expired)", tr.TuplesDelivered)
	}
	if tr.TuplesExpired == 0 {
		t.Error("no tuples recorded as expired")
	}
}

func TestLocalOrShuffleStaysInWorker(t *testing.T) {
	// With producer and a consumer instance in the same worker,
	// local-or-shuffle never crosses the network: NIC utilization stays
	// zero even though a remote consumer instance exists.
	c, err := cluster.TwoRack(1, 2, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	b := topology.NewBuilder("local")
	b.SetSpout("s", 1).SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 50 * time.Microsecond, TupleBytes: 4096})
	b.SetBolt("d", 2).LocalOrShuffleGrouping("s").SetCPULoad(5).SetMemoryLoad(64).
		SetProfile(topology.ExecProfile{CPUPerTuple: 25 * time.Microsecond, TupleBytes: 4096})
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := core.NewAssignment("local", "manual")
	ids := c.NodeIDs()
	a.Place(0, core.Placement{Node: ids[0], Slot: 0}) // spout
	a.Place(1, core.Placement{Node: ids[0], Slot: 0}) // local consumer
	a.Place(2, core.Placement{Node: ids[1], Slot: 0}) // remote consumer
	sim, err := New(c, Config{Duration: 5 * time.Second, MetricsWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if util := res.NICUtilization[ids[0]]; util != 0 {
		t.Errorf("NIC used %.3f despite local-or-shuffle with a local target", util)
	}
	if res.Topology("local").TuplesDelivered == 0 {
		t.Error("nothing delivered")
	}
}
