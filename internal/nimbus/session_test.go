package nimbus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/workloads"
)

// sessionDigest is the SHA-256 of the master event log of the session
// below, recorded before the scheduler's placement path moved from
// node-keyed maps to index-addressed slices. Placement decisions, their
// order and their error texts all land in Events(), so any change to what
// R-Storm decides on this session shows up here.
const sessionDigest = "8445c3cc000df82afd8cf624b74af79083d59dd6e2f5a3f38820ed422668b96c"

// detectorDigest is the SHA-256 of json.Marshal(DetectorStatus()) at the
// end of the same session, recorded while the detector still decoded
// every heartbeat payload for its seq. It pins each node's state, missed
// and healthy counts and lastSeq, and the failover history, so it holds
// the detector to reading the same seqs from data versions.
const detectorDigest = "ecabecf0fc07955b2840efb549257c77b985f829bdb1a36691ab1c70638bf961"

// runSession drives a seeded closed-loop control-plane session with the
// failure detector on: every cycle the live supervisors heartbeat, the
// detector ticks, one random tenant (priority 0-3) is submitted and a
// scheduling round runs. Every third cycle a seeded node stalls long
// enough to be declared dead; every 40th cycle a seeded supervisor's
// session expires and it rejoins 12 cycles later through flap damping.
// Once 24 tenants are live the oldest is killed every cycle.
func runSession(t *testing.T, seed int64, cycles int) *Nimbus {
	t.Helper()
	c, err := cluster.TwoRack(2, 12, cluster.EmulabNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatal(err)
	}
	n.EnableFailureDetector(DetectorConfig{})
	ids := c.NodeIDs()
	svs := make([]*Supervisor, len(ids))
	for i, id := range ids {
		if svs[i], err = n.StartSupervisor(id); err != nil {
			t.Fatal(err)
		}
	}
	n.HeartbeatTick()

	rng := rand.New(rand.NewSource(seed))
	stall := make([]int, len(ids))
	rejoin := make([]int, len(ids)) // cycle at which a failed supervisor rejoins
	var live []string
	for cycle := 1; cycle <= cycles; cycle++ {
		for i, sv := range svs {
			if rejoin[i] == cycle {
				if svs[i], err = n.StartSupervisor(ids[i]); err != nil {
					t.Fatalf("cycle %d: rejoin %s: %v", cycle, ids[i], err)
				}
				rejoin[i] = 0
				continue
			}
			if rejoin[i] > 0 {
				continue
			}
			if stall[i] > 0 {
				stall[i]--
				continue
			}
			if err := sv.Heartbeat(); err != nil {
				t.Fatalf("cycle %d: heartbeat %s: %v", cycle, ids[i], err)
			}
		}
		n.HeartbeatTick()
		if i := rng.Intn(len(ids)); cycle%3 == 0 && stall[i] == 0 && rejoin[i] == 0 {
			stall[i] = 6
		}
		if i := rng.Intn(len(ids)); cycle%40 == 0 && rejoin[i] == 0 {
			if err := svs[i].Fail(); err != nil {
				t.Fatalf("cycle %d: fail %s: %v", cycle, ids[i], err)
			}
			rejoin[i] = cycle + 12
		}

		topo, err := workloads.RandomTopology(seed*1_000_000+int64(cycle),
			workloads.RandomParams{MaxComponents: 6, MaxParallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := n.SubmitTopologyWithPriority(topo, rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
		n.RunSchedulingRound()
		live = append(live, topo.Name())
		if len(live) >= 24 {
			if err := n.KillTopology(live[0]); err != nil {
				t.Fatal(err)
			}
			live = live[1:]
		}
	}
	return n
}

// TestSessionDigest pins R-Storm's decisions and the detector's view over
// a 300-cycle session that exercises admission by priority, eviction and
// rollback, stall and session-expiry failover with requeues, flap
// damping, and kills.
func TestSessionDigest(t *testing.T) {
	n := runSession(t, 1, 300)
	events := n.Events()
	requeued := 0
	for _, f := range n.Failovers() {
		if f.Requeued {
			requeued++
		}
	}
	failed := 0
	for _, e := range events {
		if strings.Contains(e, "failed:") {
			failed++
		}
	}
	if len(n.Evictions()) == 0 || len(n.Failovers()) == 0 || requeued == 0 || failed == 0 {
		t.Fatalf("session lost coverage: %d evictions, %d failovers (%d requeued), %d failed admissions",
			len(n.Evictions()), len(n.Failovers()), requeued, failed)
	}
	sum := sha256.Sum256([]byte(strings.Join(events, "\n")))
	if got := hex.EncodeToString(sum[:]); got != sessionDigest {
		t.Errorf("event log digest = %s, want %s (%d events, %d evictions, %d failovers)",
			got, sessionDigest, len(events), len(n.Evictions()), len(n.Failovers()))
	}
	status, err := json.Marshal(n.DetectorStatus())
	if err != nil {
		t.Fatal(err)
	}
	sum = sha256.Sum256(status)
	if got := hex.EncodeToString(sum[:]); got != detectorDigest {
		t.Errorf("detector status digest = %s, want %s", got, detectorDigest)
	}
}
