package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// readBenchmarkJSON decodes BENCHMARK.json, rejecting any key spec lacks.
func readBenchmarkJSON(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b spec
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	seen := make(map[string]bool)
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	var workloads []string
	for _, w := range b.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		workloads = append(workloads, w.Name)
	}
	if strings.Join(workloads, " ") != strings.Join(workloadNames(), " ") {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", workloads, workloadNames())
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, code reports %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, otherBound float64
	for i, m := range b.EndToEnd {
		checkName("end-to-end", m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end[%d] = %s %s, code reports %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		// 0.25 is the largest bound the BENCHMARK.json format allows.
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		} else {
			otherBound = max(otherBound, m.Bound)
		}
	}
	if setupBound <= otherBound {
		t.Errorf("setup_s bound %v is not the largest (others reach %v)", setupBound, otherBound)
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, code reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName("per-layer", m.Name)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %s %s, code reports %s %s", i, m.Name, m.Unit, d.name, d.unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		moves := false
		for _, e := range endToEnd {
			moves = moves || e.name == d.moves
		}
		known := false
		for _, w := range workloadNames() {
			known = known || w == d.on
		}
		if !moves || !known {
			t.Errorf("%s should move %q on %q: not a declared end-to-end metric and workload", d.name, d.moves, d.on)
		}
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload on shrunken inputs,
// untraced and traced, and checks each run reports exactly the declared
// metrics, every output check passes, and the result line has exactly the
// keys correct, attempted, failed and metrics.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				smoke(t, name, traced)
			})
		}
	}
}

func smoke(t *testing.T, name string, traced bool) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var log bytes.Buffer
	rec, _, err := runWorkload(name, 1, time.Millisecond, traced, true, &log)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < minOps {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", rec.Correct, rec.Attempted, rec.Failed, log.String())
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(rec.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := rec.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s missing", d.name)
		case m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v %s", d.name, m.Value, m.Unit)
		case !traced && m.Value <= 0:
			t.Errorf("end-to-end %s = %v, want > 0", d.name, m.Value)
		}
	}

	var out bytes.Buffer
	if err := printResult(&out, rec); err != nil {
		t.Fatal(err)
	}
	var result map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &result); err != nil {
		t.Fatal(err)
	}
	if len(result) != 4 || result["correct"] == nil || result["attempted"] == nil ||
		result["failed"] == nil || result["metrics"] == nil {
		t.Errorf("result line %s", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-workload", "nope", "-seconds", "1"}, 1},
		{[]string{"-workload", "paper-chain", "-trace", "2"}, 2},
		{[]string{"-workload", "paper-chain", "-seconds", "0"}, 2},
		{[]string{"-no-such-flag"}, 2},
	} {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != c.code || out.Len() != 0 {
			t.Errorf("%v: exit %d with %q on stdout, want exit %d and nothing printed", c.args, code, out.String(), c.code)
		}
	}
}
