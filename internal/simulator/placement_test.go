package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/faults"
)

// windowCounter is a counting observer: each window's sample count and
// summed busy time.
type windowCounter struct{ lines []string }

func (w *windowCounter) OnWindow(samples []TaskSample) {
	var busy time.Duration
	for _, s := range samples {
		busy += s.Busy
	}
	w.lines = append(w.lines, fmt.Sprintf("%d %d", len(samples), busy))
}

// placementChangeDigest drives every way a placement changes mid-run on
// a four-rack cluster with replay on: shardedTopo plus a pairTopo tenant,
// 3 s in 250 ms epochs. Each epoch does one of four things in turn:
//
//   - crash a seeded node and recover it 300 ms later;
//   - Reassign three seeded tasks to seeded live nodes;
//   - ReassignRestarting every dead task onto seeded live nodes;
//   - kill the tenant if any of its tasks lives, else revive it.
//
// The digest is a SHA-256 over the Result's JSON, node utilization
// included, and, per observer window, the sample count and summed Busy.
func placementChangeDigest(t *testing.T, seed int64, shards int) string {
	t.Helper()
	c := shardedCluster(t)
	ids := c.NodeIDs()
	sim, err := New(c, Config{
		Duration:      3 * time.Second,
		MetricsWindow: 250 * time.Millisecond,
		Seed:          seed,
		Replay:        true,
		Shards:        shards,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	topo := shardedTopo(t)
	a := spreadAssignment(topo, c)
	if err := sim.AddTopology(topo, a); err != nil {
		t.Fatalf("AddTopology: %v", err)
	}
	tenant := pairTopo(t, "tenant", 40)
	if err := sim.AddTopology(tenant, pairAssignment(tenant, ids[0], ids[4])); err != nil {
		t.Fatalf("AddTopology(tenant): %v", err)
	}
	obs := &windowCounter{}
	if err := sim.SetObserver(obs); err != nil {
		t.Fatalf("SetObserver: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	liveNode := func() cluster.NodeID {
		for {
			if id := ids[rng.Intn(len(ids))]; !sim.nodes[id].dead {
				return id
			}
		}
	}
	tasks := topo.Tasks()
	epoch := 0
	for at := 250 * time.Millisecond; at < 3*time.Second; at += 250 * time.Millisecond {
		if err := sim.RunTo(at); err != nil {
			t.Fatalf("RunTo(%v): %v", at, err)
		}
		switch epoch % 4 {
		case 0:
			victim := ids[rng.Intn(len(ids))]
			for _, f := range []faults.Fault{
				{Kind: faults.Crash, Node: victim, At: at},
				{Kind: faults.Recover, Node: victim, At: at + 300*time.Millisecond},
			} {
				if err := sim.InjectFault(f); err != nil {
					t.Fatalf("InjectFault(%v): %v", f, err)
				}
			}
		case 1:
			next := a.Clone()
			for i := 0; i < 3; i++ {
				next.Place(tasks[rng.Intn(len(tasks))].ID, core.Placement{Node: liveNode()})
			}
			if _, err := sim.Reassign(topo.Name(), next); err != nil {
				t.Fatalf("Reassign at %v: %v", at, err)
			}
			a = next
		case 2:
			next := a.Clone()
			restart := make(map[int]bool)
			for _, st := range sim.runNamed(topo.Name()).ordered {
				if st.dead {
					restart[st.task.ID] = true
					next.Place(st.task.ID, core.Placement{Node: liveNode()})
				}
			}
			if _, err := sim.ReassignRestarting(topo.Name(), next, restart); err != nil {
				t.Fatalf("ReassignRestarting at %v: %v", at, err)
			}
			a = next
		case 3:
			live := false
			for _, st := range sim.runNamed(tenant.Name()).ordered {
				live = live || !st.dead
			}
			if live {
				err = sim.KillTopology(tenant.Name())
			} else {
				err = sim.SubmitTopology(tenant, pairAssignment(tenant, liveNode(), liveNode()))
			}
			if err != nil {
				t.Fatalf("tenant epoch at %v (live %v): %v", at, live, err)
			}
		}
		epoch++
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	h := sha256.New()
	h.Write(blob)
	for _, line := range obs.lines {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlacementChangeDigest pins the placement-change paths — fault
// deaths, Reassign, ReassignRestarting, KillTopology and a revive — at
// shards 0, 1 and 2 for six seeds. Shards 1 and 2 must agree.
func TestPlacementChangeDigest(t *testing.T) {
	// Per seed: the one-lane partition (Shards 0), then the per-rack
	// partition (every Shards >= 1 must read it).
	digests := map[int64][2]string{
		1: {"d0cb60b03915afa04340423b5c382c2efaaf8fc5ffcffe9426de7c8381d8a345", "5ef42e28ed0cd153d5024786581b06c88cdb1cb0fd7e58d481010ae4af64e786"},
		2: {"1afad2966e813d13cf22f76214873b908ff1ddb91d620d59fb5383fd31ffa427", "fc7683e8feb59021217d95a22c88045b039acf4392dad47908f51bb10b361495"},
		3: {"d860dd7cefbaca69fb755fd1ade0526132f3174ace6c92bcb3681ef9e367f8ea", "708ac7902a39c76cfde49240b69058a9a019104bc924dc2ba5e395417e5c5643"},
		4: {"cd139aa4562bb4f89358e3325d638706f88e94a395689093bb236bd298c525c9", "1fca8c3182ac00ba14cb8aaf4f73ec1223ad26034ffc8ad58d4b2ff0d0993835"},
		5: {"e1707c6a1feba31046b440e513d4ae2c664d8bcd1338485f427c40b4ee48830e", "3d8da56f97aba9bc465bd1d8db3b4dbd777fd4a755e484ea768a7c5b7302b8d7"},
		6: {"226d4380e5ac5731331754ee1a5ac65b75dc1f37d38a05ed85d731909a7125d7", "5516c486f1c8049500cf33e69d78ad9f4212eb34b36628ff595655ecdddc1a35"},
	}
	for seed := int64(1); seed <= 6; seed++ {
		want := digests[seed]
		one := placementChangeDigest(t, seed, 0)
		if one != want[0] {
			t.Errorf("seed %d shards 0: digest %s, want %s", seed, one, want[0])
		}
		perRack := placementChangeDigest(t, seed, 1)
		if perRack != want[1] {
			t.Errorf("seed %d shards 1: digest %s, want %s", seed, perRack, want[1])
		}
		if two := placementChangeDigest(t, seed, 2); two != perRack {
			t.Errorf("seed %d: shards 2 digest %s differs from shards 1 %s", seed, two, perRack)
		}
	}
}
