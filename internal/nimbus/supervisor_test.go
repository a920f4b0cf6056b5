package nimbus

import (
	"encoding/json"
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/resource"
)

// TestHeartbeatPayloadBytes holds the stored presence payload, after
// registration and k beats, to json.Marshal of the HeartbeatPayload with
// Seq k, across the seq's digit-count changes and on nodes whose capacity
// JSON prints with and without a fraction.
func TestHeartbeatPayloadBytes(t *testing.T) {
	emulab, err := cluster.Emulab12()
	if err != nil {
		t.Fatal(err)
	}
	fractional, err := cluster.TwoRack(2, 3, cluster.NodeSpec{
		Capacity: resource.Vector{CPU: 133.5, MemoryMB: 1536.25, Bandwidth: 100},
		Slots:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *cluster.Cluster
	}{{"Emulab12", emulab}, {"TwoRack", fractional}} {
		name, c := tc.name, tc.c
		for _, k := range []int64{0, 1, 9, 10, 1000} {
			n, err := New(c, core.NewResourceAwareScheduler())
			if err != nil {
				t.Fatal(err)
			}
			for _, node := range c.Nodes() {
				sv, err := n.StartSupervisor(node.ID)
				if err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i < k; i++ {
					if err := sv.Heartbeat(); err != nil {
						t.Fatal(err)
					}
				}
				want, err := json.Marshal(HeartbeatPayload{
					Node:     string(node.ID),
					CPU:      node.Spec.Capacity.CPU,
					MemoryMB: node.Spec.Capacity.MemoryMB,
					Slots:    node.Spec.Slots,
					Seq:      k,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := n.Store().Get(supervisorsPath + "/" + string(node.ID))
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("%s %s after %d beats: stored %s, want %s", name, node.ID, k, got, want)
				}
			}
		}
	}
}
