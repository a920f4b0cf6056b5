package nimbus

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"rstorm/internal/adaptive"
	"rstorm/internal/trace"
)

// StatisticServer exposes the master's state over HTTP — the analogue of
// R-Storm's StatisticServer module (§5.1), which "is responsible for
// collecting statistics in the Storm cluster ... for evaluative purposes".
//
// Routes:
//
//	GET /summary                cluster summary (supervisors, topologies,
//	                            per-topology priority, eviction history)
//	GET /assignments            every assignment, keyed by topology
//	GET /assignments/{name}     one topology's assignment
//	GET /events                 the master's action log
//	GET /evictions              the master's eviction history
//	GET /adaptive               adaptive-controller state (when attached)
//	GET /faults                 failure-detector state and failover history
//	GET /metrics                Prometheus text exposition (DESIGN.md §8)
//	GET /journal                decision journal as JSONL (when attached)
//	GET /latency                per-topology latency summaries (when
//	                            attached)
//	GET /debug/pprof/...        runtime profiles (with WithPprof only)
//
// Every route is GET-only (405 with an Allow header otherwise) and every
// response body — success or error — is JSON, except /metrics
// (Prometheus text format) and /journal (JSON lines).
//
// Mount it on any mux or serve it directly:
//
//	srv := nimbus.NewStatisticServer(n)
//	http.ListenAndServe(":8080", srv)
type StatisticServer struct {
	nimbus   *Nimbus
	mux      *http.ServeMux
	adaptive func() adaptive.ControllerStatus
	journal  func() *trace.Journal
	latency  func() map[string]trace.Summary
	pprof    bool
}

var _ http.Handler = (*StatisticServer)(nil)

// StatServerOption configures a StatisticServer.
type StatServerOption func(*StatisticServer)

// WithAdaptiveStatus attaches an adaptive controller's status snapshot to
// the /adaptive route (typically adaptive.Controller.Status).
func WithAdaptiveStatus(fn func() adaptive.ControllerStatus) StatServerOption {
	return func(s *StatisticServer) { s.adaptive = fn }
}

// WithJournal attaches a decision-journal source to the /journal route
// and the journal counters of /metrics. The callback may return nil
// (journal not yet attached), which serves 404.
func WithJournal(fn func() *trace.Journal) StatServerOption {
	return func(s *StatisticServer) { s.journal = fn }
}

// WithLatency attaches a latency-summary source (typically the
// simulator's Simulation.LatencySummaries) to the /latency route and the
// latency summaries of /metrics. The callback may return nil (histograms
// off), which serves 404 on /latency.
func WithLatency(fn func() map[string]trace.Summary) StatServerOption {
	return func(s *StatisticServer) { s.latency = fn }
}

// WithPprof mounts net/http/pprof's handlers under /debug/pprof/ —
// opt-in, since profiles expose process internals.
func WithPprof() StatServerOption {
	return func(s *StatisticServer) { s.pprof = true }
}

// NewStatisticServer returns the HTTP facade over a Nimbus.
func NewStatisticServer(n *Nimbus, opts ...StatServerOption) *StatisticServer {
	s := &StatisticServer{nimbus: n, mux: http.NewServeMux()}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("/summary", get(s.handleSummary))
	s.mux.HandleFunc("/assignments", get(s.handleAssignments))
	s.mux.HandleFunc("/assignments/", get(s.handleAssignment))
	s.mux.HandleFunc("/events", get(s.handleEvents))
	s.mux.HandleFunc("/evictions", get(s.handleEvictions))
	s.mux.HandleFunc("/adaptive", get(s.handleAdaptive))
	s.mux.HandleFunc("/faults", get(s.handleFaults))
	s.mux.HandleFunc("/metrics", get(s.handleMetrics))
	s.mux.HandleFunc("/journal", get(s.handleJournal))
	s.mux.HandleFunc("/latency", get(s.handleLatency))
	if s.pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)          //rstorm:route-ok net/http/pprof handlers set their own Content-Type and answer GET only by construction
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline) //rstorm:route-ok net/http/pprof handlers set their own Content-Type and answer GET only by construction
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile) //rstorm:route-ok net/http/pprof handlers set their own Content-Type and answer GET only by construction
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)   //rstorm:route-ok pprof symbol lookup accepts POST by design; wrapping it in the GET guard would break the pprof tool
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)     //rstorm:route-ok net/http/pprof handlers set their own Content-Type and answer GET only by construction
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *StatisticServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// get wraps a handler with the server's uniform method discipline: only
// GET is served, anything else gets 405 with an Allow header.
func get(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			jsonError(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (s *StatisticServer) handleSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.nimbus.Summary())
}

func (s *StatisticServer) handleAssignments(w http.ResponseWriter, r *http.Request) {
	assignments := s.nimbus.state.Assignments()
	out := make(map[string]json.RawMessage, len(assignments))
	for name, a := range assignments {
		data, err := EncodeAssignment(a)
		if err != nil {
			jsonError(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out[name] = data
	}
	writeJSON(w, out)
}

func (s *StatisticServer) handleAssignment(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/assignments/")
	a := s.nimbus.Assignment(name)
	if a == nil {
		jsonError(w, "unknown topology", http.StatusNotFound)
		return
	}
	data, err := EncodeAssignment(a)
	if err != nil {
		jsonError(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

func (s *StatisticServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.nimbus.Events())
}

func (s *StatisticServer) handleEvictions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.nimbus.Evictions())
}

func (s *StatisticServer) handleAdaptive(w http.ResponseWriter, r *http.Request) {
	if s.adaptive == nil {
		jsonError(w, "adaptive controller not attached", http.StatusNotFound)
		return
	}
	writeJSON(w, s.adaptive())
}

func (s *StatisticServer) handleFaults(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.nimbus.DetectorStatus())
}

// handleJournal streams the decision journal in JSONL, one event per
// line — the exposition format of DESIGN.md §8.
func (s *StatisticServer) handleJournal(w http.ResponseWriter, r *http.Request) {
	var j *trace.Journal
	if s.journal != nil {
		j = s.journal()
	}
	if j == nil {
		jsonError(w, "journal not attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = j.WriteJSONL(w)
}

// handleLatency serves per-topology complete-tree latency summaries.
func (s *StatisticServer) handleLatency(w http.ResponseWriter, r *http.Request) {
	var sums map[string]trace.Summary
	if s.latency != nil {
		sums = s.latency()
	}
	if sums == nil {
		jsonError(w, "latency source not attached", http.StatusNotFound)
		return
	}
	writeJSON(w, sums)
}

// handleMetrics renders the master's state in Prometheus text exposition
// format 0.0.4 — always available, with journal counters and latency
// summaries folded in when their sources are attached.
func (s *StatisticServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n := s.nimbus
	n.mu.Lock()
	supervisors := 0
	for _, h := range n.detector.nodes {
		if h.state == HealthHealthy || h.state == HealthSuspect {
			supervisors++
		}
	}
	running := 0
	for name := range n.topologies {
		if n.state.Assignment(name) != nil {
			running++
		}
	}
	pending := len(n.pending)
	rounds := n.rounds
	evictions := len(n.evictions)
	failovers := len(n.detector.events)
	n.mu.Unlock()

	var pw trace.PromWriter
	pw.Header("rstorm_supervisors_alive", "Registered supervisors with restored capacity.", "gauge")
	pw.Sample("rstorm_supervisors_alive", nil, float64(supervisors))
	pw.Header("rstorm_topologies", "Topologies known to the master, by state.", "gauge")
	pw.Sample("rstorm_topologies", []trace.Label{{Name: "state", Value: "running"}}, float64(running))
	pw.Sample("rstorm_topologies", []trace.Label{{Name: "state", Value: "pending"}}, float64(pending))
	pw.Header("rstorm_scheduling_rounds_total", "Cluster scheduling rounds run.", "counter")
	pw.Sample("rstorm_scheduling_rounds_total", nil, float64(rounds))
	pw.Header("rstorm_evictions_total", "Tenants evicted by priority admission.", "counter")
	pw.Sample("rstorm_evictions_total", nil, float64(evictions))
	pw.Header("rstorm_failovers_total", "Topology repairs after detector-declared node deaths.", "counter")
	pw.Sample("rstorm_failovers_total", nil, float64(failovers))

	pw.Header("rstorm_node_health", "Failure-detector state per node (1 = current state).", "gauge")
	for _, nh := range n.DetectorStatus().Nodes {
		pw.Sample("rstorm_node_health", []trace.Label{
			{Name: "node", Value: nh.Node},
			{Name: "state", Value: nh.State},
		}, 1)
	}

	if s.journal != nil {
		if j := s.journal(); j != nil {
			pw.Header("rstorm_journal_events_total", "Decision-journal events recorded.", "counter")
			pw.Sample("rstorm_journal_events_total", nil, float64(uint64(j.Len())+j.Dropped()))
			pw.Header("rstorm_journal_dropped_total", "Decision-journal events overwritten by the bounded ring.", "counter")
			pw.Sample("rstorm_journal_dropped_total", nil, float64(j.Dropped()))
		}
	}

	if s.latency != nil {
		if sums := s.latency(); len(sums) > 0 {
			names := make([]string, 0, len(sums))
			for name := range sums {
				names = append(names, name)
			}
			sort.Strings(names)
			pw.Header("rstorm_tuple_latency_seconds", "Complete-tree tuple latency per topology.", "summary")
			for _, name := range names {
				sum := sums[name]
				topo := trace.Label{Name: "topology", Value: name}
				for _, q := range []struct {
					q string
					v time.Duration
				}{{"0.5", sum.P50}, {"0.95", sum.P95}, {"0.99", sum.P99}} {
					pw.Sample("rstorm_tuple_latency_seconds", []trace.Label{
						topo, {Name: "quantile", Value: q.q},
					}, q.v.Seconds())
				}
				pw.Sample("rstorm_tuple_latency_seconds_sum", []trace.Label{topo},
					sum.Mean.Seconds()*float64(sum.Count))
				pw.Sample("rstorm_tuple_latency_seconds_count", []trace.Label{topo},
					float64(sum.Count))
			}
		}
	}

	w.Header().Set("Content-Type", trace.PromContentType)
	_, _ = pw.WriteTo(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// jsonError is http.Error with the server's uniform JSON body.
func jsonError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{%q: %q}\n", "error", msg)
}
