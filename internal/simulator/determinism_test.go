package simulator

import (
	"reflect"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
	"rstorm/internal/topology"
)

// fig8aLikeTopo is the Fig. 8a linear network-bound chain used by the
// determinism regression: spout -> bolt -> sink with heavy tuples.
func fig8aLikeTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("fig8a-det")
	b.SetSpout("spout", 4).SetCPULoad(20).SetMemoryLoad(512).
		SetProfile(topology.ExecProfile{CPUPerTuple: 50 * time.Microsecond, TupleBytes: 4096, KeyCardinality: 64})
	// Fields grouping makes the seeded key stream observable in the
	// Result (per-task load follows the keys), unlike pure round-robin.
	b.SetBolt("mid", 4).FieldsGrouping("spout", "key").SetCPULoad(20).SetMemoryLoad(512).
		SetProfile(topology.ExecProfile{CPUPerTuple: 50 * time.Microsecond, TupleBytes: 4096})
	b.SetBolt("sink", 4).ShuffleGrouping("mid").SetCPULoad(20).SetMemoryLoad(512).
		SetProfile(topology.ExecProfile{CPUPerTuple: 50 * time.Microsecond, TupleBytes: 64})
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return topo
}

// runSeeded schedules and runs the topology with a fixed seed.
func runSeeded(t *testing.T, seed int64, failNode bool) *Result {
	t.Helper()
	topo := fig8aLikeTopo(t)
	c, err := cluster.Emulab12()
	if err != nil {
		t.Fatalf("Emulab12: %v", err)
	}
	state := core.NewGlobalState(c)
	a, err := core.NewResourceAwareScheduler().Schedule(topo, c, state)
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	sim, err := New(c, Config{
		Duration:      6 * time.Second,
		MetricsWindow: time.Second,
		Seed:          seed,
		TupleTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	if failNode {
		ids := c.NodeIDs()
		if err := sim.InjectFault(faults.Fault{Kind: faults.Crash, Node: ids[len(ids)-1], At: 3 * time.Second}); err != nil {
			t.Fatalf("InjectFault: %v", err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestSeededRunsAreIdentical is the DES determinism regression: the same
// seed must produce identical Result structs run-to-run — the free lists,
// the typed event records, and the radix event queue must not introduce
// any ordering or accounting drift.
func TestSeededRunsAreIdentical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		failNode bool
	}{
		{name: "seed1", seed: 1},
		{name: "seed99", seed: 99},
		{name: "seed1-with-failure", seed: 1, failNode: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := runSeeded(t, tc.seed, tc.failNode)
			second := runSeeded(t, tc.seed, tc.failNode)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("seeded runs diverged:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		})
	}
}

// TestDifferentSeedsDiverge guards the other direction: the seed must
// actually influence the run (a constant RNG would also pass the test
// above).
func TestDifferentSeedsDiverge(t *testing.T) {
	a := runSeeded(t, 1, false)
	b := runSeeded(t, 2, false)
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical Results; RNG is not wired through")
	}
}
