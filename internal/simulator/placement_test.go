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
// The digest is a SHA-256 over the Result's JSON and, per observer window,
// the sample count and summed Busy. Node utilization (NodeUtilization,
// MeanUtilizationUsed) is left out: TestReviveCreditsOldHost pins which
// host a moved task's busy time is credited to.
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
	res.NodeUtilization = nil
	res.MeanUtilizationUsed = 0
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
		1: {"b04c4001a183247b6a4756bf75ce8128c4127b13262aee9ef1bb9cfa86a15241", "33fdffe455e92358cb6bd9251978eea9423931d4ed00e70a8185a6b278d6f55d"},
		2: {"08367c9afafe8a7a9e8d9e6a209163f59a2848edf0f5ba44abf7834e7c0675d5", "9d99ce43b5c323a3e52fdf130ee52c1d0c73e36b5dbcb61bce24ceaa014614ca"},
		3: {"da88c37868ab964892c9d65dcf2e06f38bc1e34b6d70cad0659be7b864ee7504", "8781475ef93b6d03ef2341ba04a08d3bb1857cfa6e98e5f671515b5ffddfd88e"},
		4: {"fc2393e77324a261f027b0988099ce304b3fb7a856b660a4ca012defed0dec81", "5c94f903803373e75c34b897b0eea6b5325a8f51c61dbe7d5b3255cce5f24954"},
		5: {"46370908f5b3c1757655b55ca1912e8b280b9d938c4f2e8508b22cf7482e5d84", "3fa381dd1322aaf12c3739880af5ecca693cb8882ea0b32187a0411fada06478"},
		6: {"4606ee82848ddf5c253135b9e9dcc0278b332fc37a74c4b348c49f2943605714", "444ed73ca30a5a1a6396c7f18645059c64381ebfcf81d10de0673c3af628f3b5"},
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
