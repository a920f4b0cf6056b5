package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	var sp spec
	if err := readJSON("testdata/spec.json", &sp); err != nil {
		t.Fatal(err)
	}
	base, err := readRecords("testdata/base.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	head, err := readRecords("testdata/head.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"op_ms": "worse",      // +20% against a 10% bound
		"thr":   "better",     // +10% on a higher-is-better metric, beyond base's 1.25% spread
		"rss":   "same",       // identical sets
		"setup": "unresolved", // 67% spread exceeds the 25% bound
		"lat":   "better",     // spread exceeds the bound, but every head run beats every base run
	}
	rows := compareSets(sp, base, head)
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for _, c := range rows {
		if c.verdict != want[c.metric] {
			t.Errorf("%s: verdict %s (delta %+.3f, spreads %.3f/%.3f), want %s",
				c.metric, c.verdict, c.delta, c.base.Spread(), c.head.Spread(), want[c.metric])
		}
		// The traced record in head.jsonl must not count.
		if c.head.N != 5 {
			t.Errorf("%s: head has %d runs, want the 5 untraced ones", c.metric, c.head.N)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-compare", "-spec", "testdata/spec.json", "testdata/base.jsonl", "testdata/head.jsonl"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 6 || !strings.HasPrefix(lines[0], "workload") {
		t.Fatalf("want a header and 5 rows, got:\n%s", out.String())
	}
	if !strings.Contains(lines[1], "op_ms") || !strings.Contains(lines[1], "+20.0%") || !strings.HasSuffix(lines[1], "worse") {
		t.Errorf("op_ms row = %q", lines[1])
	}
	if code := run([]string{"-compare", "testdata/base.jsonl"}, &out, &errOut); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
}
