package simulator

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
)

// Sharded-kernel regression suite (DESIGN.md §11). The kernel's contract is
// that Config.Shards is pure parallelism: for a fixed seed the Result must
// be byte-identical for every Shards >= 1, under faults, replay, the memory
// model, observers, and mid-run reassignment. The suite runs a four-rack
// cluster with placements spread round-robin across racks, so every rack
// pair carries tuples, acks, and backpressure completions.

func shardCounts() []int { return []int{1, 2, 4, 8} }

// shardedCluster is four racks of three Emulab-class nodes: more lanes than
// some worker counts, fewer than others, so the coordinator's block split
// is exercised unevenly in both directions.
func shardedCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.TwoRack(4, 3, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatalf("TwoRack: %v", err)
	}
	return c
}

// spreadAssignment places tasks round-robin across every node, guaranteeing
// cross-rack edges on each stream regardless of what a scheduler would do.
func spreadAssignment(topo *topology.Topology, c *cluster.Cluster) *core.Assignment {
	a := core.NewAssignment(topo.Name(), "spread")
	ids := c.NodeIDs()
	for i, task := range topo.Tasks() {
		a.Placements[task.ID] = core.Placement{Node: ids[i%len(ids)], Slot: 0}
	}
	return a
}

func shardedTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("sharded-det")
	b.SetSpout("spout", 4).SetCPULoad(20).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 50 * time.Microsecond, TupleBytes: 4096, KeyCardinality: 64})
	b.SetBolt("mid", 4).FieldsGrouping("spout", "key").SetCPULoad(20).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 50 * time.Microsecond, TupleBytes: 4096})
	b.SetBolt("sink", 4).ShuffleGrouping("mid").SetCPULoad(20).SetMemoryLoad(256).
		SetProfile(topology.ExecProfile{CPUPerTuple: 50 * time.Microsecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return topo
}

// windowDigest summarizes one observer flush; captured per window so the
// observer-facing sample stream is part of the cross-shard comparison.
type windowDigest struct {
	window    int
	processed int64
	emitted   int64
	busy      time.Duration
	overflows int64
	remote    int64
}

type digestObserver struct{ windows []windowDigest }

func (d *digestObserver) OnWindow(samples []TaskSample) {
	var w windowDigest
	if len(samples) > 0 {
		w.window = samples[0].Window
	}
	for _, s := range samples {
		w.processed += s.Processed
		w.emitted += s.Emitted
		w.busy += s.Busy
		w.overflows += s.Overflows
		for _, e := range s.Edges {
			if e.Remote {
				w.remote += e.Tuples
			}
		}
	}
	d.windows = append(d.windows, w)
}

// shardedVariant configures one determinism scenario.
type shardedVariant struct {
	name    string
	cfg     Config
	faults  []faults.Fault
	observe bool
}

func shardedVariants() []shardedVariant {
	base := Config{
		Duration:      6 * time.Second,
		MetricsWindow: time.Second,
		Seed:          7,
		TupleTimeout:  2 * time.Second,
	}
	replayCfg := base
	replayCfg.Replay = true
	memCfg := base
	memCfg.MemoryModel = true
	histCfg := base
	histCfg.LatencyHistograms = true
	return []shardedVariant{
		{name: "plain", cfg: base},
		{name: "crash-recover-replay", cfg: replayCfg, faults: []faults.Fault{
			{Kind: faults.Crash, Node: "node-1-0", At: 2 * time.Second},
			{Kind: faults.Recover, Node: "node-1-0", At: 4 * time.Second},
			{Kind: faults.Slow, Node: "node-3-1", At: 1500 * time.Millisecond, Factor: 3},
		}},
		{name: "memory-model", cfg: memCfg},
		{name: "histograms-observer", cfg: histCfg, observe: true},
	}
}

func runSharded(t *testing.T, v shardedVariant, shards int) (*Result, []windowDigest) {
	t.Helper()
	topo := shardedTopo(t)
	c := shardedCluster(t)
	cfg := v.cfg
	cfg.Shards = shards
	sim, err := New(c, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, spreadAssignment(topo, c)); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	for _, f := range v.faults {
		if err := sim.InjectFault(f); err != nil {
			t.Fatalf("InjectFault(%v): %v", f, err)
		}
	}
	var obs *digestObserver
	if v.observe {
		obs = &digestObserver{}
		if err := sim.SetObserver(obs); err != nil {
			t.Fatalf("SetObserver: %v", err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if obs != nil {
		return res, obs.windows
	}
	return res, nil
}

// TestShardedKernelDeterminism is the tentpole invariant: the Result (and
// the observer's window stream) must be byte-identical for every worker
// count, in every scenario, and run-to-run at a fixed count.
func TestShardedKernelDeterminism(t *testing.T) {
	for _, v := range shardedVariants() {
		t.Run(v.name, func(t *testing.T) {
			base, baseWin := runSharded(t, v, 1)
			if v.name == "plain" {
				tr := base.Topology("sharded-det")
				if tr.TuplesDelivered == 0 {
					t.Fatal("no tuples delivered; scenario is inert")
				}
				if tr.TuplesSentRemote == 0 {
					t.Fatal("no cross-node traffic; lanes never talk")
				}
			}
			again, againWin := runSharded(t, v, 1)
			if !reflect.DeepEqual(base, again) {
				t.Fatalf("shards=1 runs diverged:\nfirst:  %+v\nsecond: %+v", base, again)
			}
			if !reflect.DeepEqual(baseWin, againWin) {
				t.Fatalf("shards=1 observer streams diverged")
			}
			for _, shards := range shardCounts()[1:] {
				res, win := runSharded(t, v, shards)
				if !reflect.DeepEqual(base, res) {
					t.Errorf("shards=%d Result differs from shards=1:\nbase: %+v\ngot:  %+v",
						shards, base, res)
				}
				if !reflect.DeepEqual(baseWin, win) {
					t.Errorf("shards=%d observer stream differs from shards=1", shards)
				}
			}
		})
	}
}

// TestShardedReassignDeterminism drives the epoch path: pause mid-run,
// migrate tasks across racks (forcing pending events to rehome between
// lanes), resume, and compare Results across worker counts.
func TestShardedReassignDeterminism(t *testing.T) {
	run := func(shards int) *Result {
		topo := shardedTopo(t)
		c := shardedCluster(t)
		sim, err := New(c, Config{
			Duration:      6 * time.Second,
			MetricsWindow: time.Second,
			Seed:          11,
			TupleTimeout:  2 * time.Second,
			Shards:        shards,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		a := spreadAssignment(topo, c)
		if err := sim.AddTopology(topo, a); err != nil {
			t.Fatalf("AddTopology: %v", err)
		}
		if err := sim.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		if err := sim.RunTo(3 * time.Second); err != nil {
			t.Fatalf("RunTo: %v", err)
		}
		// Swap every "mid" task one node forward — most hop racks.
		next := a.Clone()
		ids := c.NodeIDs()
		idx := make(map[cluster.NodeID]int, len(ids))
		for i, id := range ids {
			idx[id] = i
		}
		for _, task := range topo.TasksOf("mid") {
			p := next.Placements[task.ID]
			next.Placements[task.ID] = core.Placement{
				Node: ids[(idx[p.Node]+1)%len(ids)], Slot: p.Slot,
			}
		}
		moved, err := sim.Reassign("sharded-det", next)
		if err != nil {
			t.Fatalf("Reassign: %v", err)
		}
		if moved == 0 {
			t.Fatal("reassignment moved nothing; rehome path untested")
		}
		res, err := sim.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return res
	}
	base := run(1)
	for _, shards := range shardCounts()[1:] {
		if res := run(shards); !reflect.DeepEqual(base, res) {
			t.Errorf("shards=%d post-reassign Result differs from shards=1", shards)
		}
	}
}

// TestShardedRejectsIncompatibleObservability: tracing and the decision
// journal assume one globally-ordered event loop and must be refused, as
// must a negative shard count.
func TestShardedRejectsIncompatibleObservability(t *testing.T) {
	c := shardedCluster(t)
	if _, err := New(c, Config{Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := New(c, Config{Shards: 2, TraceSampleEvery: 10}); err == nil {
		t.Error("Shards with TraceSampleEvery accepted")
	}
	sim, err := New(c, Config{Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.SetJournal(trace.NewJournal(16)); err == nil {
		t.Error("SetJournal on sharded simulation accepted")
	}
	if err := sim.SetJournal(nil); err != nil {
		t.Errorf("detaching a nil journal rejected: %v", err)
	}
}

// TestShardedSingleRackCollapses: a one-rack cluster leaves no cross-lane
// cut, so every Shards value — 0 included — must build the same single
// lane and produce the same Result. Shards == 0 is not a second kernel,
// only the one-lane partition.
func TestShardedSingleRackCollapses(t *testing.T) {
	c, err := cluster.TwoRack(1, 6, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatalf("TwoRack: %v", err)
	}
	topo := shardedTopo(t)
	run := func(shards int) *Result {
		sim, err := New(c, Config{
			Duration:      3 * time.Second,
			MetricsWindow: time.Second,
			Seed:          3,
			Shards:        shards,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if len(sim.lanes) != 1 {
			t.Fatalf("single-rack cluster built %d lanes, want 1", len(sim.lanes))
		}
		if err := sim.AddTopology(topo, spreadAssignment(topo, c)); err != nil {
			t.Fatalf("AddTopology: %v", err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	base := run(1)
	for _, shards := range []int{0, 2, 8} {
		if res := run(shards); !reflect.DeepEqual(base, res) {
			t.Errorf("shards=%d single-rack Result differs from shards=1", shards)
		}
	}
}

// TestShardedCrossRackMovesKeepTreesLive moves spouts and bolts across
// racks between short epochs while tuple-tree acks are in flight between
// lanes. A move can put a tree's home spout, or a child's consumer, on
// the lane the tree's pending count lives on while the parent's
// cross-lane delta is still queued; unless the barrier folds those
// deltas in before anything runs, the child's removal applies first, the
// tree completes early and is freed, and the late delta lands on a
// recycled tree. Declaring the bolts before the spout also makes a moved
// bolt's queue drain before its spout has moved, unless the drain waits
// for every move; its failed trees then complete on the spout's old lane.
// The symptom either way is a Result that depends on the worker count
// and, under -race, two lanes writing the same tree or spout.
func TestShardedCrossRackMovesKeepTreesLive(t *testing.T) {
	c, err := cluster.TwoRack(4, 6, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatalf("TwoRack: %v", err)
	}
	p := topology.ExecProfile{CPUPerTuple: 100 * time.Microsecond, TupleBytes: 256}
	build := func(boltsFirst bool) *topology.Topology {
		b := topology.NewBuilder("movers")
		spout := func() { b.SetSpout("s", 8).SetCPULoad(10).SetMemoryLoad(256).SetProfile(p) }
		if !boltsFirst {
			spout()
		}
		b.SetBolt("m", 8).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
		b.SetBolt("z", 8).ShuffleGrouping("m").SetCPULoad(10).SetMemoryLoad(256).SetProfile(p)
		if boltsFirst {
			spout()
		}
		topo, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		return topo
	}
	const seed = 3
	run := func(topo *topology.Topology, shards int) *Result {
		a, err := core.EvenScheduler{}.Schedule(topo, c, core.NewGlobalState(c))
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		sim, err := New(c, Config{
			Duration:      2 * time.Second,
			MetricsWindow: 250 * time.Millisecond,
			Seed:          seed,
			Replay:        true,
			Shards:        shards,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := sim.AddTopology(topo, a); err != nil {
			t.Fatalf("AddTopology: %v", err)
		}
		if err := sim.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		// Each epoch moves four seeded tasks, spouts included, to a
		// seeded node in another rack.
		rng := rand.New(rand.NewSource(seed))
		ids := c.NodeIDs()
		tasks := topo.Tasks()
		moved := 0
		for at := 250 * time.Millisecond; at < 2*time.Second; at += 250 * time.Millisecond {
			if err := sim.RunTo(at); err != nil {
				t.Fatalf("RunTo(%v): %v", at, err)
			}
			next := a.Clone()
			for i := 0; i < 4; i++ {
				tid := tasks[rng.Intn(len(tasks))].ID
				from := c.Node(next.Placements[tid].Node).Rack
				for {
					to := ids[rng.Intn(len(ids))]
					if c.Node(to).Rack != from {
						next.Place(tid, core.Placement{Node: to})
						break
					}
				}
			}
			n, err := sim.Reassign("movers", next)
			if err != nil {
				t.Fatalf("Reassign at %v: %v", at, err)
			}
			moved += n
			a = next
		}
		if moved == 0 {
			t.Fatal("no task moved; the scenario is inert")
		}
		res, err := sim.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return res
	}
	for _, boltsFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("bolts-first=%v", boltsFirst), func(t *testing.T) {
			topo := build(boltsFirst)
			base := run(topo, 1)
			if base.Topology("movers").TuplesDelivered == 0 {
				t.Fatal("no tuples delivered; the scenario is inert")
			}
			for _, shards := range []int{2, 4} {
				if res := run(topo, shards); !reflect.DeepEqual(base, res) {
					t.Errorf("shards=%d Result differs from shards=1 after cross-rack moves:\nbase: %+v\ngot:  %+v",
						shards, base, res)
				}
			}
		})
	}
}
