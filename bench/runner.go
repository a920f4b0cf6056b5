package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Metric is one reported number. N, Q1 and Q3 are set when the value is
// the median of several samples.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

func medianOf(xs []float64, unit string) Metric {
	s := Summarize(xs)
	return Metric{Value: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3}
}

// metricDef is a metric BENCHMARK.json declares. A per-layer metric also
// names the end-to-end metric it should move and the workload it should
// move it on.
type metricDef struct{ name, unit, moves, on string }

// endToEnd is reported by every untraced run. Each workload defines its
// own op and unit of work (README.md lists them).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "work_per_s", unit: "1/s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer is reported by every traced run: the layer probes (probes.go),
// the Go runtime counters read around traced ops, and the tracing cost.
var perLayer = []metricDef{
	{"des.step_ns.1k", "ns", "work_per_s", "paper-chain"},
	{"des.step_ns.16k", "ns", "work_per_s", "rack-scale"},
	{"pardes.window_ns", "ns", "work_per_s", "rack-scale"},
	{"pardes.speedup", "ratio", "work_per_s", "rack-scale"},
	{"pardes.cores_busy", "cores", "work_per_s", "rack-churn"},
	{"simulator.tuple_ns", "ns", "work_per_s", "paper-chain"},
	{"simulator.allocs_per_tuple", "allocs", "work_per_s", "rack-scale"},
	{"core.schedule_us.40", "us", "setup_s", "paper-chain"},
	{"core.schedule_us.400", "us", "work_per_s", "control-plane"},
	{"core.schedule_us.4000", "us", "work_per_s", "control-plane"},
	{"nimbus.tick_us", "us", "work_per_s", "control-plane"},
	{"statestore.get_us", "us", "work_per_s", "control-plane"},
	{"statestore.children_us", "us", "work_per_s", "control-plane"},
	{"runtime.allocs_per_op", "allocs", "peak_rss_mb", "control-plane"},
	{"runtime.alloc_kb_per_op", "KB", "peak_rss_mb", "rack-scale"},
	{"runtime.cores_busy", "cores", "work_per_s", "paper-suite"},
	{"trace_overhead_pct", "%", "work_per_s", "control-plane"},
}

const (
	// warmupOps leading ops are left out of every metric.
	warmupOps = 1
	// minOps timed ops run however short the budget, so every median has
	// quartiles; a traced run needs two traced and two untraced ops.
	minOps       = 3
	minTracedOps = 4
	// maxErrors bounds the failures echoed to standard error.
	maxErrors = 5
	// scenarios is how many input sets a run cycles through, so that one
	// run's median spans several draws of the seeded inputs rather than
	// one. Warm-up uses the first input set, and so does the first timed
	// op, whose output digest is therefore always checked.
	scenarios = 8
)

// runner drives one workload: it times set-ups and ops, spends the
// wall-clock budget, pairs traced and untraced ops in a traced run, and
// counts failures.
type runner struct {
	seed   int64
	short  bool
	tr     *Tracer // nil in an untraced run
	log    io.Writer
	start  time.Time
	budget time.Duration

	ops       int
	traced    bool // whether the current op is traced
	setupS    []float64
	opMS      []float64 // untraced ops
	tracedMS  []float64
	workPerS  []float64
	attempted int
	failed    int
	extra     map[string]Metric
	rt        rtCounters // summed over traced ops
	rtOps     int
	digests   map[int64]string   // first output digest of each input set
	pairs     map[int][2]float64 // traced run: each pair's traced and untraced op, ms
}

func newRunner(seed int64, budget time.Duration, traced, short bool, log io.Writer) *runner {
	r := &runner{seed: seed, short: short, log: log, start: time.Now(), budget: budget,
		extra: make(map[string]Metric), digests: make(map[int64]string), pairs: make(map[int][2]float64)}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// more reports whether another op should run: warm-up and the minimum
// count always do; after that, an op runs if one more of median length
// still ends inside the budget.
func (r *runner) more() bool {
	need := minOps
	if r.tr != nil {
		need = minTracedOps
	}
	if r.ops < warmupOps+need {
		return true
	}
	all := append(append([]float64(nil), r.opMS...), r.tracedMS...)
	next := time.Duration(Summarize(all).Median * float64(time.Millisecond))
	return time.Since(r.start)+next <= r.budget
}

// next begins an op and returns the tracer its set-up and calls record
// into: nil for untraced ops. In a traced run, ops after warm-up come in
// pairs that run the same inputs back to back, one traced and one not, so
// the two differ only by the tracing. The traced op comes first in even
// pairs and second in odd ones, so neither position favours one kind.
func (r *runner) next() *Tracer {
	k := r.ops - warmupOps
	r.ops++
	r.traced = r.tr != nil && k >= 0 && k%2 == (k/2)%2
	if r.traced {
		return r.tr
	}
	return nil
}

// pair is the pair the current op of a traced run belongs to.
func (r *runner) pair() int { return (r.ops - 1 - warmupOps) / 2 }

// scenario is the seed of the current op's inputs, derived from the run's
// seed: the same seed gives the same inputs. Both ops of a traced run's
// pair share one.
func (r *runner) scenario() int64 {
	k := max(r.ops-1-warmupOps, 0)
	if r.tr != nil {
		k /= 2
	}
	return r.seed*scenarios + int64(k%scenarios)
}

// setup times fn, one set-up. The collector runs as it would for a user:
// a collection that lands inside some set-ups moves their quartiles, not
// the median. A set-up that fails ends the run.
func (r *runner) setup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	return nil
}

// op times one op begun by next. fn returns the units of work it
// completed; an error (a failed call or a failed output check) counts the
// op as failed.
func (r *runner) op(fn func(t *Tracer, parent int) (float64, error)) {
	var t *Tracer
	if r.traced {
		t = r.tr
	}
	r.attempted++
	var before rtCounters
	if t != nil {
		before = readCounters()
	}
	id := t.Begin("bench.op", 0)
	t0 := time.Now()
	units, err := fn(t, id)
	wall := time.Since(t0)
	t.End(id)
	if t != nil {
		r.rt.add(readCounters().sub(before))
		r.rtOps++
	}
	if err != nil {
		r.fail(err)
		return
	}
	if r.ops <= warmupOps {
		return
	}
	ms := float64(wall) / 1e6
	if t != nil {
		r.tracedMS = append(r.tracedMS, ms)
	} else {
		r.opMS = append(r.opMS, ms)
	}
	if r.tr != nil {
		i, p := 1, r.pairs[r.pair()]
		if t != nil {
			i = 0
		}
		p[i] = ms
		r.pairs[r.pair()] = p
	}
	r.workPerS = append(r.workPerS, units/wall.Seconds())
}

// check records a run-level output check.
func (r *runner) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *runner) fail(err error) {
	r.failed++
	if r.failed <= maxErrors {
		fmt.Fprintf(r.log, "FAIL: %v\n", err)
	}
}

// sameDigest checks that an op's output, digested, equals the output of
// the first op that ran the same inputs.
func (r *runner) sameDigest(scenario int64, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	d := hex.EncodeToString(sum[:8])
	ref, ok := r.digests[scenario]
	if !ok {
		r.digests[scenario] = d
		return nil
	}
	if d != ref {
		return fmt.Errorf("inputs %d: output digest %s differs from the first run's %s", scenario, d, ref)
	}
	return nil
}

// rtCounters are the process counters read around traced ops.
type rtCounters struct {
	wall, cpu, gcCPU float64 // seconds
	allocs, bytes    float64
}

func (a rtCounters) sub(b rtCounters) rtCounters {
	return rtCounters{a.wall - b.wall, a.cpu - b.cpu, a.gcCPU - b.gcCPU, a.allocs - b.allocs, a.bytes - b.bytes}
}

func (a *rtCounters) add(b rtCounters) {
	a.wall += b.wall
	a.cpu += b.cpu
	a.gcCPU += b.gcCPU
	a.allocs += b.allocs
	a.bytes += b.bytes
}

var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readCounters() rtCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{
		wall:   float64(time.Now().UnixNano()) / 1e9,
		cpu:    processCPU(),
		gcCPU:  s[2].Value.Float64(),
		allocs: float64(s[0].Value.Uint64()),
		bytes:  float64(s[1].Value.Uint64()),
	}
}

// processCPU is the user plus system CPU time of the process, in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// Record is everything one run measured.
type Record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Extra holds workload-specific and span-derived numbers that no
	// other workload has, so BENCHMARK.json cannot declare them.
	Extra map[string]Metric `json:"extra,omitempty"`
	Env   Env               `json:"env"`
}

// Env describes where the run happened.
type Env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// record assembles the run's metrics. probes holds the layer probes of a
// traced run.
func (r *runner) record(workload string, probes map[string]Metric) *Record {
	rec := &Record{
		Workload:  workload,
		Seed:      r.seed,
		Seconds:   r.budget.Seconds(),
		Trace:     r.tr != nil,
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]Metric),
		Extra:     r.extra,
		Env:       Env{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()},
	}
	if r.tr == nil {
		rec.Metrics["setup_s"] = medianOf(r.setupS, "s")
		rec.Metrics["work_per_s"] = medianOf(r.workPerS, "1/s")
		rec.Metrics["peak_rss_mb"] = Metric{Value: peakRSSMB(), Unit: "MB"}
		return rec
	}
	for k, v := range probes {
		rec.Metrics[k] = v
	}
	n := float64(max(r.rtOps, 1))
	rec.Metrics["runtime.allocs_per_op"] = Metric{Value: r.rt.allocs / n, Unit: "allocs", N: r.rtOps}
	rec.Metrics["runtime.alloc_kb_per_op"] = Metric{Value: r.rt.bytes / n / 1024, Unit: "KB", N: r.rtOps}
	// Zero on workloads that allocate too little to collect inside an op,
	// so it is reported beside the declared metrics rather than among them.
	rec.Extra["runtime.gc_cpu_frac"] = Metric{Value: r.rt.gcCPU / max(r.rt.cpu, 1e-9), Unit: "ratio", N: r.rtOps}
	rec.Metrics["runtime.cores_busy"] = Metric{Value: r.rt.cpu / max(r.rt.wall, 1e-9), Unit: "cores", N: r.rtOps}
	// A pair lacks an op only when that op failed, which the result line
	// already reports as incorrect.
	var overheads []float64
	for _, p := range r.pairs {
		if p[0] > 0 && p[1] > 0 {
			overheads = append(overheads, (p[0]/p[1]-1)*100)
		}
	}
	rec.Metrics["trace_overhead_pct"] = medianOf(overheads, "%")
	r.spanExtras(rec.Extra)
	return rec
}

// spanExtras adds each span name's median duration and each layer's self
// time as a share of the traced wall time, which is the time the root
// spans (ops and the set-up calls before them) cover. Under parallel suite
// cells the shares can sum past 100.
func (r *runner) spanExtras(extra map[string]Metric) {
	spans := r.tr.Spans()
	stats := Analyze(spans)
	var rootWall float64
	for _, s := range spans {
		if s.Parent == 0 {
			rootWall += float64(s.End-s.Start) / 1e9
		}
	}
	self := make(map[string]float64)
	for name, st := range stats {
		ms := make([]float64, len(st.Durations))
		for i, d := range st.Durations {
			ms[i] = d * 1e3
		}
		extra["span."+name+".ms"] = medianOf(ms, "ms")
		self[layerOf(name)] += st.Self
	}
	if rootWall > 0 {
		for layer, s := range self {
			extra["self_pct."+layer] = Metric{Value: s / rootWall * 100, Unit: "%"}
		}
	}
}
