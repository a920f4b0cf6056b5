// Package workloads defines the benchmark topologies of the paper's
// evaluation (§6): the Linear, Diamond and Star micro-benchmarks in
// network-bound and computation-time-bound configurations (Fig. 7–10), and
// reconstructions of the Yahoo! PageLoad and Processing production
// topologies (Fig. 11–13). Parameters — parallelism, declared resource
// loads, and execution profiles — are calibrated so the simulated cluster
// reproduces the qualitative shapes the paper reports; each figure's report
// in internal/experiments/testdata/golden sets the measured result beside
// the paper's claim.
package workloads

import (
	"time"

	"rstorm/internal/topology"
)

// Bound selects the micro-benchmark configuration of §6.3: topologies are
// either bounded by network resources or by computation time.
type Bound int

const (
	// NetworkBound configures tiny per-tuple CPU cost and moderate tuple
	// sizes, so throughput is limited by the network (§6.3.1).
	NetworkBound Bound = iota + 1
	// ComputeBound configures heavy per-tuple CPU cost and declared CPU
	// loads that fill whole cores (§6.3.2).
	ComputeBound
)

// String implements fmt.Stringer.
func (b Bound) String() string {
	switch b {
	case NetworkBound:
		return "network-bound"
	case ComputeBound:
		return "compute-bound"
	default:
		return "unknown-bound"
	}
}

// Micro-benchmark profiles. Network-bound components do very little work
// per tuple ("very little processing at each component", §6.3.1);
// compute-bound components "conduct a significant amount of arbitrary
// processing" (§6.3.2). Memory loads are the user-declared hints that let
// R-Storm pack without violating the hard constraint: network-bound tasks
// fit 4 per 2048 MB node, compute-bound tasks 2 per node — which on the
// 100-point nodes aligns the memory cap with the CPU capacity.
// netProfile returns the network-bound execution profile: cheap per-tuple
// work and small payloads. In this regime throughput is governed by the
// network: default Storm's striding sends every hop across the inter-rack
// boundary, so its closed-loop (max-spout-pending) throughput is capped by
// network latency, while R-Storm's rack-local packing pushes the pipeline
// to its processing ceiling — exactly the paper's attribution ("minimizing
// network communication latency by colocating tasks", §6.3.1).
func netProfile() topology.ExecProfile {
	return topology.ExecProfile{
		CPUPerTuple: 200 * time.Microsecond,
		TupleBytes:  200,
	}
}

func computeProfile() topology.ExecProfile {
	return topology.ExecProfile{
		CPUPerTuple: 3 * time.Millisecond,
		TupleBytes:  128,
	}
}

type microLoads struct {
	cpu     float64
	mem     float64
	profile topology.ExecProfile
}

func loadsFor(b Bound) microLoads {
	if b == ComputeBound {
		return microLoads{cpu: 50, mem: 1024, profile: computeProfile()}
	}
	return microLoads{cpu: 10, mem: 512, profile: netProfile()}
}

// LinearTopology builds the Linear micro-benchmark (Fig. 7a): a chain
// spout → bolt1 → bolt2 → bolt3. Network-bound uses parallelism 6 per
// component (24 tasks); compute-bound uses 3 (12 tasks, filling exactly
// six 100-point nodes at 2 tasks x 50 points).
func LinearTopology(bound Bound) (*topology.Topology, error) {
	l := loadsFor(bound)
	par := 6
	if bound == ComputeBound {
		par = 3
	}
	b := topology.NewBuilder("linear-" + bound.String())
	if bound == NetworkBound {
		b.SetMaxSpoutPending(23)
	}
	b.SetSpout("spout", par).SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	b.SetBolt("bolt1", par).ShuffleGrouping("spout").
		SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	b.SetBolt("bolt2", par).ShuffleGrouping("bolt1").
		SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	b.SetBolt("bolt3", par).ShuffleGrouping("bolt2").
		SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	return b.Build()
}

// DiamondTopology builds the Diamond micro-benchmark (Fig. 7b): a spout
// fanning out to three middle bolts that all feed one sink bolt.
func DiamondTopology(bound Bound) (*topology.Topology, error) {
	l := loadsFor(bound)
	// The sink consumes three instances per root (one per middle bolt),
	// so it gets the same parallelism as each stage and becomes the
	// pipeline's tightest stage — the diamond's natural fan-in pressure.
	spoutPar, midPar, sinkPar := 6, 6, 6
	if bound == ComputeBound {
		// 2 + 3x3 + 2 = 13 tasks: R-Storm needs 7 nodes at 2 tasks
		// per node, reproducing the paper's "7 machines" (§6.3.2).
		spoutPar, midPar, sinkPar = 2, 3, 2
	}
	b := topology.NewBuilder("diamond-" + bound.String())
	if bound == NetworkBound {
		b.SetMaxSpoutPending(6)
	}
	b.SetSpout("spout", spoutPar).SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	for _, mid := range []string{"left", "middle", "right"} {
		b.SetBolt(mid, midPar).ShuffleGrouping("spout").
			SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	}
	b.SetBolt("sink", sinkPar).
		ShuffleGrouping("left").ShuffleGrouping("middle").ShuffleGrouping("right").
		SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	return b.Build()
}

// StarTopology builds the Star micro-benchmark (Fig. 7c): two spouts
// feeding a central hub bolt that fans out to two sink bolts.
//
// The compute-bound variant reproduces the paper's §6.3.2 star scenario:
// the hub is heavy (85 points, 1500 MB — effectively one hub per node),
// and the topology requests fewer workers than machines, so default
// Storm's striding stacks two hub tasks onto one worker and over-utilizes
// that machine, bottlenecking the whole topology. R-Storm ignores the
// worker hint and packs each hub with one light task at exactly 100
// points per node.
func StarTopology(bound Bound) (*topology.Topology, error) {
	l := loadsFor(bound)
	b := topology.NewBuilder("star-" + bound.String())
	if bound == ComputeBound {
		hub := computeProfile()
		light := topology.ExecProfile{CPUPerTuple: 450 * time.Microsecond, TupleBytes: 128}
		b.SetNumWorkers(7)
		b.SetSpout("spout-a", 2).SetCPULoad(15).SetMemoryLoad(400).SetProfile(light)
		b.SetSpout("spout-b", 2).SetCPULoad(15).SetMemoryLoad(400).SetProfile(light)
		b.SetBolt("hub", 8).ShuffleGrouping("spout-a").ShuffleGrouping("spout-b").
			SetCPULoad(85).SetMemoryLoad(1500).SetProfile(hub)
		b.SetBolt("out-a", 2).ShuffleGrouping("hub").
			SetCPULoad(15).SetMemoryLoad(400).SetProfile(light)
		b.SetBolt("out-b", 2).ShuffleGrouping("hub").
			SetCPULoad(15).SetMemoryLoad(400).SetProfile(light)
		return b.Build()
	}
	b.SetMaxSpoutPending(11)
	b.SetSpout("spout-a", 4).SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	b.SetSpout("spout-b", 4).SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	b.SetBolt("hub", 6).ShuffleGrouping("spout-a").ShuffleGrouping("spout-b").
		SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	b.SetBolt("out-a", 6).ShuffleGrouping("hub").
		SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	b.SetBolt("out-b", 6).ShuffleGrouping("hub").
		SetCPULoad(l.cpu).SetMemoryLoad(l.mem).SetProfile(l.profile)
	return b.Build()
}
