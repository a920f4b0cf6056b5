package nimbus

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rstorm/internal/core"
	"rstorm/internal/trace"
)

// journalCodes filters a journal's events down to those with the code.
func journalCodes(j *trace.Journal, code string) []trace.Event {
	var out []trace.Event
	for _, e := range j.Events() {
		if e.Code == code {
			out = append(out, e)
		}
	}
	return out
}

// TestStatServerRouteErrorPaths drives every route's error paths through
// one table: non-GET methods get 405 with an Allow header, missing
// sources get 404, and every error body is JSON with an "error" key.
func TestStatServerRouteErrorPaths(t *testing.T) {
	_, srv := statServerFixture(t) // bare server: no journal/latency/adaptive
	routes := []struct {
		path       string
		wantGet    int // status of a plain GET
		wantErrKey string
	}{
		{"/summary", http.StatusOK, ""},
		{"/assignments", http.StatusOK, ""},
		{"/assignments/served", http.StatusOK, ""},
		{"/assignments/ghost", http.StatusNotFound, "unknown topology"},
		{"/events", http.StatusOK, ""},
		{"/evictions", http.StatusOK, ""},
		{"/adaptive", http.StatusNotFound, "adaptive controller not attached"},
		{"/faults", http.StatusOK, ""},
		{"/metrics", http.StatusOK, ""},
		{"/journal", http.StatusNotFound, "journal not attached"},
		{"/latency", http.StatusNotFound, "latency source not attached"},
	}
	for _, rt := range routes {
		t.Run("GET"+rt.path, func(t *testing.T) {
			resp, err := http.Get(srv.URL + rt.path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != rt.wantGet {
				t.Fatalf("status = %d, want %d", resp.StatusCode, rt.wantGet)
			}
			ct := resp.Header.Get("Content-Type")
			if rt.path == "/metrics" && rt.wantGet == http.StatusOK {
				if ct != trace.PromContentType {
					t.Errorf("Content-Type = %q, want %q", ct, trace.PromContentType)
				}
			} else if !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if rt.wantErrKey != "" {
				var body struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatalf("error body is not JSON: %v", err)
				}
				if body.Error != rt.wantErrKey {
					t.Errorf("error = %q, want %q", body.Error, rt.wantErrKey)
				}
			}
		})
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			t.Run(method+rt.path, func(t *testing.T) {
				req, err := http.NewRequest(method, srv.URL+rt.path, strings.NewReader("x"))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusMethodNotAllowed {
					t.Fatalf("status = %d, want 405", resp.StatusCode)
				}
				if allow := resp.Header.Get("Allow"); allow != http.MethodGet {
					t.Errorf("Allow = %q, want GET", allow)
				}
				if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
					t.Errorf("405 Content-Type = %q, want application/json", ct)
				}
				var body struct {
					Error string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatalf("405 body is not JSON: %v", err)
				}
				if body.Error != "method not allowed" {
					t.Errorf("405 error = %q", body.Error)
				}
			})
		}
	}
}

// TestStatServerMetricsParses validates the /metrics output against the
// package's own strict exposition parser (the promtool stand-in), with
// journal and latency sources attached so every family is exercised.
func TestStatServerMetricsParses(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatal(err)
	}
	startAll(t, n, c)
	if err := n.SubmitTopology(testTopo(t, "served", 4)); err != nil {
		t.Fatal(err)
	}
	n.RunSchedulingRound()
	n.HeartbeatTick()

	j := trace.NewJournal(16)
	n.SetJournal(j)
	lat := map[string]trace.Summary{
		"served": {Count: 100, Mean: 4 * time.Millisecond,
			P50: 3 * time.Millisecond, P95: 9 * time.Millisecond,
			P99: 12 * time.Millisecond, Max: 15 * time.Millisecond},
	}
	srv := httptest.NewServer(NewStatisticServer(n,
		WithJournal(n.Journal),
		WithLatency(func() map[string]trace.Summary { return lat }),
	))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != trace.PromContentType {
		t.Errorf("Content-Type = %q", got)
	}
	families, err := trace.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := make(map[string]trace.PromFamily, len(families))
	for _, f := range families {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"rstorm_supervisors_alive", "rstorm_topologies",
		"rstorm_scheduling_rounds_total", "rstorm_evictions_total",
		"rstorm_failovers_total", "rstorm_node_health",
		"rstorm_journal_events_total", "rstorm_journal_dropped_total",
		"rstorm_tuple_latency_seconds",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("family %s missing", want)
		}
	}
	if f := byName["rstorm_supervisors_alive"]; len(f.Samples) != 1 || f.Samples[0].Value != 12 {
		t.Errorf("supervisors = %+v", f.Samples)
	}
	if f := byName["rstorm_node_health"]; len(f.Samples) != 12 {
		t.Errorf("node_health samples = %d, want 12", len(f.Samples))
	}
	if f := byName["rstorm_tuple_latency_seconds"]; len(f.Samples) != 5 {
		// three quantiles + _sum + _count
		t.Errorf("latency samples = %d, want 5", len(f.Samples))
	}

	// The latency source also backs /latency.
	var got map[string]trace.Summary
	getJSON(t, srv.URL+"/latency", &got)
	if got["served"].Count != 100 || got["served"].P99 != 12*time.Millisecond {
		t.Errorf("/latency = %+v", got)
	}
}

// TestStatServerJournalRoute checks the JSONL stream: one valid JSON
// object per line, in sequence order.
func TestStatServerJournalRoute(t *testing.T) {
	n, _ := statServerFixture(t)
	j := trace.NewJournal(8)
	n.SetJournal(j)
	j.Record(time.Second, trace.CodeTriggerFired, "served", "", -1, "q=0.9")
	j.Record(2*time.Second, trace.CodeRebalanceApplied, "served", "", -1, "moves=2")
	srv := httptest.NewServer(NewStatisticServer(n, WithJournal(n.Journal)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var last trace.Event
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if last.Seq != 2 || last.Code != trace.CodeRebalanceApplied {
		t.Errorf("last event = %+v", last)
	}
}

// TestStatServerPprof: the profiling routes exist only with WithPprof.
func TestStatServerPprof(t *testing.T) {
	n, _ := statServerFixture(t)
	bare := httptest.NewServer(NewStatisticServer(n))
	defer bare.Close()
	resp, err := http.Get(bare.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bare server serves pprof: %d", resp.StatusCode)
	}

	prof := httptest.NewServer(NewStatisticServer(n, WithPprof()))
	defer prof.Close()
	resp, err = http.Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

// TestNimbusJournalSchedulingEvents: a scheduling round with evictions
// journals eviction + scheduling-round, and the victims' eventual
// rescheduling journals readmission.
func TestNimbusJournalSchedulingEvents(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatal(err)
	}
	j := trace.NewJournal(0)
	n.SetJournal(j)
	startAll(t, n, c)
	fillCluster(t, n)
	if err := n.SubmitTopology(tenantTopo(t, "prod", 7, 1000, 8)); err != nil {
		t.Fatal(err)
	}
	if got := n.RunSchedulingRound(); len(got) != 1 || got[0] != "prod" {
		t.Fatalf("round scheduled %v", got)
	}
	evs := journalCodes(j, trace.CodeEviction)
	if len(evs) != len(n.Evictions()) || len(evs) == 0 {
		t.Fatalf("journaled evictions = %d, history = %d", len(evs), len(n.Evictions()))
	}
	if !strings.Contains(evs[0].Detail, "for=prod") {
		t.Errorf("eviction detail = %q", evs[0].Detail)
	}
	rounds := journalCodes(j, trace.CodeSchedulingRound)
	if len(rounds) != 2 {
		t.Fatalf("journaled rounds = %d, want 2", len(rounds))
	}

	// Make room: kill prod, reschedule — the victims are readmitted.
	if err := n.KillTopology("prod"); err != nil {
		t.Fatal(err)
	}
	kills := journalCodes(j, trace.CodeTopologyKilled)
	_ = kills // the master does not journal kills; the simulator does
	readmittedWant := len(n.Pending())
	if got := n.RunSchedulingRound(); len(got) != readmittedWant {
		t.Fatalf("readmission round scheduled %v, want %d", got, readmittedWant)
	}
	re := journalCodes(j, trace.CodeReadmission)
	if len(re) != readmittedWant {
		t.Fatalf("journaled readmissions = %d, want %d", len(re), readmittedWant)
	}
	// Seq is strictly increasing across the whole stream.
	events := j.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("Seq not increasing at %d: %+v", i, events[i])
		}
	}
}

// TestNimbusJournalDetectorEvents walks a node through suspect → dead →
// failover → rejoin and checks each transition is journaled exactly once.
func TestNimbusJournalDetectorEvents(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatal(err)
	}
	n.EnableFailureDetector(DetectorConfig{SuspectAfter: 2, DeadAfter: 3, FlapDamping: 2})
	j := trace.NewJournal(0)
	n.SetJournal(j)
	sups := startAll(t, n, c)
	if err := n.SubmitTopology(testTopo(t, "wordcount", 4)); err != nil {
		t.Fatal(err)
	}
	n.RunSchedulingRound()
	victim := victimNode(t, n, "wordcount")

	n.HeartbeatTick()
	for i := 0; i < 3; i++ {
		beatExcept(t, sups, victim)
		n.HeartbeatTick()
	}
	sus := journalCodes(j, trace.CodeNodeSuspect)
	if len(sus) != 1 || sus[0].Node != string(victim) {
		t.Fatalf("suspect events = %+v", sus)
	}
	dead := journalCodes(j, trace.CodeNodeDead)
	if len(dead) != 1 || dead[0].Node != string(victim) || !strings.Contains(dead[0].Detail, "missed=3") {
		t.Fatalf("dead events = %+v", dead)
	}
	fo := journalCodes(j, trace.CodeFailoverRound)
	if len(fo) != 1 || fo[0].Topology != "wordcount" || fo[0].Node != string(victim) {
		t.Fatalf("failover events = %+v", fo)
	}
	if !strings.Contains(fo[0].Detail, "moves=") {
		t.Errorf("failover detail = %q", fo[0].Detail)
	}

	// The victim beats again: after FlapDamping fresh beats it rejoins.
	for i := 0; i < 2; i++ {
		beatExcept(t, sups)
		n.HeartbeatTick()
	}
	rejoin := journalCodes(j, trace.CodeNodeRejoin)
	if len(rejoin) != 1 || rejoin[0].Node != string(victim) {
		t.Fatalf("rejoin events = %+v", rejoin)
	}
}

// TestStatServerConcurrentJournalScrape hammers the journal with
// concurrent writers while scraping /metrics and /journal — the race
// detector's target in CI.
func TestStatServerConcurrentJournalScrape(t *testing.T) {
	n, _ := statServerFixture(t)
	j := trace.NewJournal(256)
	n.SetJournal(j)
	srv := httptest.NewServer(NewStatisticServer(n, WithJournal(n.Journal)))
	defer srv.Close()

	const writers, perWriter, scrapes = 4, 200, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Record(time.Duration(i)*time.Millisecond, trace.CodeTriggerFired,
					"topo", "", w, fmt.Sprintf("i=%d", i))
			}
		}(w)
	}
	for _, path := range []string{"/metrics", "/journal"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(path)
	}
	wg.Wait()
	if got := j.Len(); got != 256 {
		t.Errorf("journal retained %d, want full ring 256", got)
	}
	if got := j.Dropped(); got != writers*perWriter-256 {
		t.Errorf("dropped = %d, want %d", got, writers*perWriter-256)
	}
}
