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
		1: {"45cf30ba91b871702044a9110440aac9adbd583fbfd9f712a11e85e2f4f50986", "fa4bec1547619c1dd654e059b3b8c9b45e90b5da28def94d00b7e4057a7984c7"},
		2: {"0cf07817ef6df0e938361e9bc80308a45e0d89811f214e9ef160ac1d853c3660", "c36816be9a037655bfd15bbe565c9f6e0989fca687a960e72a8f5ce84cb7c8cd"},
		3: {"2ff3e5532ccafe2bedcf6b0beda2263ef55c1d637ce4d04100c5ec5fe775ada6", "a07f463bde89b2b2e6f37913066862ee8a34e724d4830f0a81aaf49e9e20da61"},
		4: {"729de13881af2bd49e8d019d85a2614dfd21cda82d0ddca74bf85c43d43694ac", "6ec9b6edd5114efad57f52cd23e9ab0818a6a16c3caa703bb98ca48cb61b7782"},
		5: {"fc47f6210e55420bcf2b5756ec5409bef530e4d9e70c97b1897b150c9ad87445", "29b0fac672acc9cc80a32a4a2dbb9b8572ab727d7759e5baf00e6d508147aa29"},
		6: {"3bbb7fb950768154386e71495294d0f874efc5d8bdab648f163f27e98cd94d10", "c9a9cf28cde77988553719172fc7abd14b8eb7b6694f9aec50ec074946bb4ab2"},
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
