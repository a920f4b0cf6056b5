package nimbus

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rstorm/internal/adaptive"
	"rstorm/internal/cluster"
	"rstorm/internal/simulator"
)

// TestAdaptiveRoute covers /adaptive with and without a controller, plus
// its method-not-allowed path.
func TestAdaptiveRoute(t *testing.T) {
	n, srv := statServerFixture(t)
	_ = n

	// Not attached: 404.
	resp, err := http.Get(srv.URL + "/adaptive")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unattached /adaptive status = %d, want 404", resp.StatusCode)
	}

	// Attached: serves the controller snapshot, including the runtime
	// memory model's measurements and thresholds.
	ctrl := adaptive.NewController(nil, nil, adaptive.ControllerConfig{})
	ctrl.OnWindow([]simulator.TaskSample{{
		Topology: "served", Component: "s", Node: cluster.NodeID("n0"),
		WindowEnd: 1e9, Slowdown: 1, NodeCPUCapacity: 100,
		ResidentMemMB: 1900, NodeMemCapacityMB: 2048,
		Edges: []simulator.EdgeRate{
			{DestTaskID: 1, DestComponent: "z", Tuples: 600, Remote: true},
			{DestTaskID: 2, DestComponent: "z", Tuples: 400},
		},
	}})
	srv2 := httptest.NewServer(NewStatisticServer(n, WithAdaptiveStatus(ctrl.Status)))
	t.Cleanup(srv2.Close)
	var status adaptive.ControllerStatus
	getJSON(t, srv2.URL+"/adaptive", &status)
	if status.Windows != 1 || len(status.Topologies) != 1 {
		t.Errorf("status = %+v", status)
	}
	if status.Topologies[0].Name != "served" {
		t.Errorf("topology = %+v", status.Topologies[0])
	}
	if status.MemHigh <= 0 {
		t.Errorf("memHigh = %v, want the controller default surfaced", status.MemHigh)
	}
	comps := status.Topologies[0].Components
	if len(comps) != 1 || comps[0].MemResidentMB != 1900 {
		t.Errorf("measured memory not served: %+v", comps)
	}
	// 1900/2048 is past the default MemHigh: the streak must be visible.
	if status.Topologies[0].MemStreak != 1 {
		t.Errorf("memStreak = %d, want 1", status.Topologies[0].MemStreak)
	}
	// The measured traffic state is served: the component-pair edge rate
	// (both task edges fold into one s->z pair) and the inter-node
	// fraction of the counted deliveries.
	traffic := status.Topologies[0].Traffic
	if len(traffic) != 1 || traffic[0].From != "s" || traffic[0].To != "z" {
		t.Fatalf("traffic = %+v, want one s->z edge", traffic)
	}
	if traffic[0].RatePerSec != 1000 || traffic[0].Tuples != 1000 || traffic[0].RemoteTuples != 600 {
		t.Errorf("traffic edge = %+v, want 1000/s, 1000 tuples, 600 remote", traffic[0])
	}
	if got := status.Topologies[0].InterNodeFraction; got != 0.6 {
		t.Errorf("interNodeFraction = %v, want 0.6", got)
	}

	post, err := http.Post(srv2.URL+"/adaptive", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /adaptive status = %d", post.StatusCode)
	}
}

// TestRebalanceRoundTripOverHTTP: a RebalanceTopology teardown is visible
// through the statistic server — the assignment route 404s while pending
// and serves the fresh placement after the next round.
func TestRebalanceRoundTripOverHTTP(t *testing.T) {
	n, srv := statServerFixture(t)
	if err := n.RebalanceTopology("served"); err != nil {
		t.Fatalf("RebalanceTopology: %v", err)
	}
	resp, err := http.Get(srv.URL + "/assignments/served")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("torn-down assignment status = %d, want 404", resp.StatusCode)
	}
	if got := n.RunSchedulingRound(); len(got) != 1 {
		t.Fatalf("reschedule round = %v", got)
	}
	var one map[string]any
	getJSON(t, srv.URL+"/assignments/served", &one)
	if one["topology"] != "served" {
		t.Errorf("reassigned topology = %v", one)
	}
	var events []string
	getJSON(t, srv.URL+"/events", &events)
	if !strings.Contains(strings.Join(events, "\n"), "rebalance requested") {
		t.Errorf("events missing rebalance: %v", events)
	}
}
