package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rstorm/internal/faults"
)

// TestFailScheduleRoundTrip pins the -fail grammar: the legacy node@time
// crash form, the spelled-out multi-event schedule, and the slow form all
// parse, and a parsed schedule renders back to parseable syntax.
func TestFailScheduleRoundTrip(t *testing.T) {
	legacy, err := faults.ParseSchedule("node-0-3@20s")
	if err != nil {
		t.Fatalf("legacy form: %v", err)
	}
	if len(legacy) != 1 || legacy[0].Kind != faults.Crash ||
		string(legacy[0].Node) != "node-0-3" || legacy[0].At != 20*time.Second {
		t.Errorf("legacy form parsed as %+v", legacy)
	}

	spec := "crash:node-0-3@20s,recover:node-0-3@40s,slow:node-0-5@10s:2.5"
	sched, err := faults.ParseSchedule(spec)
	if err != nil {
		t.Fatalf("multi-event form: %v", err)
	}
	if len(sched) != 3 {
		t.Fatalf("parsed %d events, want 3", len(sched))
	}
	if got := sched.String(); got != spec {
		t.Errorf("round-trip = %q, want %q", got, spec)
	}
	reparsed, err := faults.ParseSchedule(sched.String())
	if err != nil || len(reparsed) != 3 {
		t.Errorf("re-parse: %v, %+v", err, reparsed)
	}

	for _, bad := range []string{"node-0-3", "n@xyz", "slow:n@1s", "slow:n@1s:0.5"} {
		if _, err := faults.ParseSchedule(bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

func TestPickScheduler(t *testing.T) {
	for _, name := range []string{"r-storm", "default-even", "offline-linear"} {
		s, err := pickScheduler(name)
		if err != nil || s.Name() != name {
			t.Errorf("pickScheduler(%s) = %v, %v", name, s, err)
		}
	}
	if _, err := pickScheduler("quantum"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestLoadDefaults(t *testing.T) {
	c, err := loadCluster("")
	if err != nil || c.Size() != 12 {
		t.Fatalf("default cluster: %v, %v", c, err)
	}
	topo, err := loadTopology("")
	if err != nil || topo.TotalTasks() == 0 {
		t.Fatalf("default topology: %v, %v", topo, err)
	}
	if _, err := loadCluster("/does/not/exist.yaml"); err == nil {
		t.Error("missing cluster file accepted")
	}
	if _, err := loadTopology("/does/not/exist.json"); err == nil {
		t.Error("missing topology file accepted")
	}
}

func TestLoadTopologyFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	spec := `{
	  "name": "filetest",
	  "components": [
	    {"name": "s", "kind": "spout", "parallelism": 2, "cpuLoad": 10, "memoryLoadMb": 128},
	    {"name": "b", "kind": "bolt", "parallelism": 2, "cpuLoad": 10, "memoryLoadMb": 128,
	     "inputs": [{"from": "s"}]}
	  ]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := loadTopology(path)
	if err != nil {
		t.Fatalf("loadTopology: %v", err)
	}
	if topo.Name() != "filetest" || topo.TotalTasks() != 4 {
		t.Errorf("loaded %q with %d tasks", topo.Name(), topo.TotalTasks())
	}
}

func TestRunEndToEnd(t *testing.T) {
	// Exercise the whole command with a tiny duration and an injected
	// failure; it must complete without error.
	var out bytes.Buffer
	err := run(&out, []string{
		"-duration", "2s", "-window", "1s",
		"-scheduler", "r-storm",
		"-fail", "node-0-0@1s",
		"-assignment",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "throughput") {
		t.Errorf("missing result summary:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-scheduler", "nope", "-duration", "1s"}); err == nil {
		t.Error("bad scheduler accepted")
	}
	if err := run(&out, []string{"-fail", "garbage", "-duration", "2s", "-window", "1s"}); err == nil ||
		!strings.Contains(err.Error(), "failure spec") {
		t.Errorf("bad failure spec err = %v", err)
	}
	// A NaN or infinite factor would make the "slowed" node run at no cost.
	for _, factor := range []string{"NaN", "Inf", "+Inf"} {
		spec := "slow:node-0-0@1s:" + factor
		if err := run(&out, []string{"-fail", spec, "-duration", "2s", "-window", "1s"}); err == nil ||
			!strings.Contains(err.Error(), "finite factor") {
			t.Errorf("-fail %s err = %v, want a finite-factor error", spec, err)
		}
	}
}

// TestRunPrintsMeasuredTable: every run (adaptive or not) must report the
// metrics tap's per-component measured-demand table.
func TestRunPrintsMeasuredTable(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-duration", "2s", "-window", "500ms"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "measured per-component demand") {
		t.Fatalf("missing measured table:\n%s", s)
	}
	for _, col := range []string{"decl-cpu", "meas-cpu", "util", "egress-mbps", "overflows"} {
		if !strings.Contains(s, col) {
			t.Errorf("measured table missing column %q", col)
		}
	}
	// The built-in linear benchmark's components must all appear.
	for _, comp := range []string{"spout", "bolt1", "bolt2", "bolt3"} {
		if !strings.Contains(s, comp) {
			t.Errorf("measured table missing component %q", comp)
		}
	}
}

// TestRunMemoryModel drives the runtime memory model from the CLI: a
// topology whose true working set (memMb) dwarfs its declared memory must
// OOM-thrash on the packed static placement, and the measured table must
// grow declared-vs-measured memory columns. With -adaptive on the same
// spec the loop must instead migrate off the filling node, take no OOM
// kills, and report a memory-triggered rebalance.
func TestRunMemoryModel(t *testing.T) {
	path := filepath.Join("testdata", "memliar.json")

	var static bytes.Buffer
	err := run(&static, []string{
		"-topology", path, "-memory",
		"-duration", "20s", "-window", "500ms",
	})
	if err != nil {
		t.Fatalf("run -memory: %v", err)
	}
	s := static.String()
	if !strings.Contains(s, "oom-killed=5 tasks") {
		t.Errorf("static run should OOM-thrash the packed cache stage:\n%s", s)
	}
	for _, col := range []string{"decl-mem", "meas-mem"} {
		if !strings.Contains(s, col) {
			t.Errorf("measured table missing memory column %q", col)
		}
	}

	var adapt bytes.Buffer
	err = run(&adapt, []string{
		"-topology", path, "-memory", "-adaptive",
		"-duration", "20s", "-window", "500ms",
	})
	if err != nil {
		t.Fatalf("run -memory -adaptive: %v", err)
	}
	s = adapt.String()
	if !strings.Contains(s, "oom-killed=0 tasks") {
		t.Errorf("adaptive run should migrate before any OOM kill:\n%s", s)
	}
	if !strings.Contains(s, "trigger=memory") {
		t.Errorf("adaptive loop never fired the memory trigger:\n%s", s)
	}
}

// TestRunAdaptiveMode drives the feedback loop from the CLI on a topology
// spec whose declarations undersell a truly heavy stage, and expects the
// loop to report its rebalances.
func TestRunAdaptiveMode(t *testing.T) {
	path := filepath.Join("testdata", "liar.json")
	var out bytes.Buffer
	err := run(&out, []string{
		"-topology", path,
		"-adaptive",
		"-duration", "8s", "-window", "500ms",
	})
	if err != nil {
		t.Fatalf("run -adaptive: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "adaptive rebalances:") {
		t.Fatalf("missing rebalance report:\n%s", s)
	}
	if !strings.Contains(s, "trigger=hotspot") {
		t.Errorf("adaptive loop never triggered on the mis-declared stage:\n%s", s)
	}
	if !strings.Contains(s, "measured per-component demand") {
		t.Error("adaptive run missing measured table")
	}
}

// TestRunTrafficMode: -traffic must report the measured edge-rate matrix
// and the run's inter-node tuple fraction; combined with -adaptive on a
// cold, CPU-overdeclared chain it must consolidate (imbalance-triggered
// moves) and end with a lower inter-node fraction than the static run.
func TestRunTrafficMode(t *testing.T) {
	// A scaled-down ChattyChain: declared heavy (spread one task per
	// node), truly idle and latency-bound, with fat tuples on every edge.
	// Four stages two tasks wide: the CPU lie spreads the chain across
	// nodes *asymmetrically* (a 3-task-per-node spill pattern), which is
	// what gives the traffic objective single-task moves to find. (A
	// 2-node symmetric split is a fixed point: every task's traffic pulls
	// equally both ways.)
	path := filepath.Join("testdata", "chatty.json")
	var static bytes.Buffer
	err := run(&static, []string{
		"-topology", path, "-traffic",
		"-duration", "4s", "-window", "500ms",
	})
	if err != nil {
		t.Fatalf("run -traffic: %v", err)
	}
	s := static.String()
	if !strings.Contains(s, "measured edge traffic") {
		t.Fatalf("missing edge traffic table:\n%s", s)
	}
	for _, want := range []string{"src", "mid", "out", "inter-node tuple fraction:"} {
		if !strings.Contains(s, want) {
			t.Errorf("traffic report missing %q:\n%s", want, s)
		}
	}

	var adapt bytes.Buffer
	err = run(&adapt, []string{
		"-topology", path, "-traffic", "-adaptive",
		"-duration", "4s", "-window", "500ms",
	})
	if err != nil {
		t.Fatalf("run -traffic -adaptive: %v", err)
	}
	a := adapt.String()
	if !strings.Contains(a, "trigger=imbalance") {
		t.Errorf("adaptive -traffic never consolidated the cold chain:\n%s", a)
	}
	frac := func(out string) float64 {
		i := strings.Index(out, "inter-node tuple fraction:")
		if i < 0 {
			t.Fatalf("no fraction line:\n%s", out)
		}
		var f float64
		if _, err := fmt.Sscanf(out[i:], "inter-node tuple fraction: %f%%", &f); err != nil {
			t.Fatalf("unparsable fraction line: %v\n%s", err, out[i:])
		}
		return f
	}
	if sf, af := frac(s), frac(a); af >= sf {
		t.Errorf("adaptive inter-node fraction %.1f%% not below static %.1f%%", af, sf)
	}
}

// TestRunChaosSchedule drives a full crash/recover/slow schedule with
// replay through the CLI and expects the fault log, downtime, and replay
// lines in the report.
func TestRunChaosSchedule(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, []string{
		"-duration", "4s", "-window", "500ms", "-replay",
		"-fail", "crash:node-0-0@1s,recover:node-0-0@2s,slow:node-0-1@500ms:2.0",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"faults applied:",
		"crash node-0-0",
		"recover node-0-0",
		"slow node-0-1",
		"downtime node-0-0: 1s",
		"replay",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("chaos report missing %q:\n%s", want, s)
		}
	}
}

// TestRunChaosMode runs the failover experiment end to end from the CLI.
func TestRunChaosMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-matrix", "failover", "-duration", "6s"}); err != nil {
		t.Fatalf("run -matrix failover: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"failover",
		"time-to-recover",
		"static (no failover)",
		"adaptive (failover)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("chaos report missing %q:\n%s", want, s)
		}
	}
}

// TestRunMatrixMode drives -matrix end to end: a seed matrix over two
// experiments renders every cell under its key, and the merged output is
// byte-identical whether one worker or four run the pool.
func TestRunMatrixMode(t *testing.T) {
	args := func(workers string) []string {
		return []string{
			"-matrix", "fig9b,consolidate x seeds=1..2",
			"-workers", workers,
			"-duration", "6s", "-window", "2s",
		}
	}
	var serial bytes.Buffer
	if err := run(&serial, args("1")); err != nil {
		t.Fatalf("run -matrix -workers 1: %v", err)
	}
	s := serial.String()
	for _, want := range []string{
		"--- cell fig9b seed=1 ---",
		"--- cell fig9b seed=2 ---",
		"--- cell consolidate seed=1 ---",
		"--- cell consolidate seed=2 ---",
		"matrix: 4 cells, 0 failed",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("matrix output missing %q:\n%s", want, s)
		}
	}
	var pooled bytes.Buffer
	if err := run(&pooled, args("4")); err != nil {
		t.Fatalf("run -matrix -workers 4: %v", err)
	}
	if pooled.String() != s {
		t.Errorf("-workers 4 output diverged from -workers 1:\n--- got ---\n%s\n--- want ---\n%s",
			pooled.String(), s)
	}
}

// TestRunMatrixRejectsBadSpecs: the matrix flag surface fails cleanly on
// grammar errors, oversized matrices, unknown experiments, flag
// composition (naming the first set flag a matrix run does not read),
// and stray or negative -workers; every mode refuses, naming the flag, a
// duration, window or control interval it would otherwise silently
// replace; and -control-interval needs -adaptive.
func TestRunMatrixRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-matrix", "fig9b × seeds="}, "matrix spec"},
		{[]string{"-matrix", "fig8a × seeds=1..9223372036854775807"}, "more than 65536 values"},
		{[]string{"-matrix", "fig99 × seeds=1"}, `unknown experiment "fig99"`},
		{[]string{"-matrix", "fig9b", "-adaptive"}, "composes with no other mode flag"},
		{[]string{"-matrix", "fig9b", "-fail", "node-0-0@1s"}, "composes with no other mode flag"},
		{[]string{"-workers", "4", "-duration", "1s"}, "-workers only applies to -matrix"},
		{[]string{"-duration", "0"}, "-duration 0s is not positive"},
		{[]string{"-matrix", "fig9b", "-duration", "-1s"}, "-duration -1s is not positive"},
		{[]string{"-window", "0", "-duration", "2s"}, "-window 0s is not positive"},
		{[]string{"-matrix", "fig9b", "-window", "-2s"}, "-window -2s is not positive"},
		{[]string{"-adaptive", "-control-interval", "-1s", "-duration", "2s"}, "-control-interval -1s is negative"},
		{[]string{"-matrix", "fig9b", "-adaptive"}, "-adaptive: -matrix runs"},
		{[]string{"-matrix", "fig8a", "-cluster", "/nonexistent", "-scheduler", "bogus", "-assignment",
			"-control-interval", "3s", "-duration", "20s", "-window", "2s"}, "-assignment: -matrix runs"},
		{[]string{"-matrix", "fig9b", "-cluster", "c.yaml"}, "-cluster: -matrix runs"},
		{[]string{"-matrix", "fig9b", "-scheduler", "default-even"}, "-scheduler: -matrix runs"},
		{[]string{"-matrix", "fig9b", "-control-interval", "3s"}, "-control-interval: -matrix runs"},
		{[]string{"-matrix", "fig9b", "-replay=false"}, "-replay: -matrix runs"},
		{[]string{"-control-interval", "5s", "-duration", "2s", "-window", "1s"}, "-control-interval only applies to -adaptive"},
		{[]string{"-matrix", "fig9b", "-workers", "-1"}, "-workers -1 is negative"},
		{[]string{"-workers", "-1", "-duration", "2s"}, "-workers -1 is negative"},
	}
	for _, c := range cases {
		err := run(&bytes.Buffer{}, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) err = %v, want %q", c.args, err, c.want)
		}
	}
}

func TestRunMultiTenantMode(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"-matrix", "multitenant", "-duration", "6s"}); err != nil {
		t.Fatalf("run -matrix multitenant: %v", err)
	}
	s := out.String()
	for _, want := range []string{
		"multitenant",
		"priority-aware admission",
		"evictions applied",
		"prod priority (evicting)",
		"prod fifo (starved)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("multitenant report missing %q:\n%s", want, s)
		}
	}
	// A duration too short for the scenario's epochs is a clean error.
	if err := run(&bytes.Buffer{}, []string{"-matrix", "multitenant", "-duration", "1s"}); err == nil {
		t.Error("1s multitenant run accepted")
	}
}

// TestRunShardedMode pins the -shards contract end to end: the sharded
// kernel's CLI output is byte-identical for every worker count, composes
// with -matrix (the failover experiment shown here), and the
// single-ordered-loop observability paths reject it.
func TestRunShardedMode(t *testing.T) {
	direct := func(shards string) string {
		var out bytes.Buffer
		if err := run(&out, []string{"-shards", shards, "-duration", "6s", "-window", "2s"}); err != nil {
			t.Fatalf("run -shards %s: %v", shards, err)
		}
		return out.String()
	}
	base := direct("1")
	if !strings.Contains(base, "throughput") {
		t.Fatalf("sharded run produced no report:\n%s", base)
	}
	for _, shards := range []string{"2", "4"} {
		if got := direct(shards); got != base {
			t.Errorf("-shards %s output diverged from -shards 1:\n--- got ---\n%s\n--- want ---\n%s",
				shards, got, base)
		}
	}

	failover := func(shards string) string {
		var out bytes.Buffer
		args := []string{"-matrix", "failover", "-duration", "6s", "-shards", shards}
		if err := run(&out, args); err != nil {
			t.Fatalf("run -matrix failover -shards %s: %v", shards, err)
		}
		return out.String()
	}
	failoverBase := failover("1")
	if !strings.Contains(failoverBase, "time-to-recover") {
		t.Fatalf("failover run produced no report:\n%s", failoverBase)
	}
	if got := failover("4"); got != failoverBase {
		t.Errorf("-matrix failover -shards 4 output diverged from -shards 1")
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "-1"}, "-shards -1 is negative"},
		{[]string{"-shards", "2", "-trace", "10"}, "single-threaded kernel"},
		{[]string{"-shards", "2", "-journal"}, "single-threaded kernel"},
	} {
		err := run(&bytes.Buffer{}, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) err = %v, want %q", c.args, err, c.want)
		}
	}
}
