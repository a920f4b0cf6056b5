package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites testdata/golden from the current output instead of
// comparing against it: `go test ./cmd/rstorm-sim -run TestRunGolden
// -update`.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current output")

// TestRunGolden pins the full output of every direct-simulation mode, and
// the experiment list, to a checked-in file, at durations short enough to
// keep the suite fast. The -fail case crashes a node exactly on a
// metrics-window boundary.
func TestRunGolden(t *testing.T) {
	fail := "crash:node-0-0@1s,recover:node-0-0@2s,slow:node-0-1@500ms:2.0"
	cases := []struct {
		name string
		args []string
	}{
		{"default", []string{"-duration", "4s", "-window", "1s"}},
		{"fail-replay", []string{"-fail", fail, "-replay", "-duration", "4s", "-window", "500ms"}},
		{"fail-replay-even-shards2", []string{"-scheduler", "default-even", "-fail", fail, "-replay", "-shards", "2",
			"-duration", "4s", "-window", "500ms"}},
		{"adaptive", []string{"-topology", filepath.Join("testdata", "liar.json"), "-adaptive",
			"-duration", "4s", "-window", "500ms"}},
		{"memory", []string{"-topology", filepath.Join("testdata", "memliar.json"), "-memory",
			"-duration", "10s", "-window", "500ms"}},
		{"traffic", []string{"-topology", filepath.Join("testdata", "chatty.json"), "-traffic", "-adaptive",
			"-duration", "4s", "-window", "500ms"}},
		{"journal-percentiles-trace", []string{"-fail", "node-0-0@1s", "-journal", "-percentiles", "-trace", "500",
			"-duration", "3s", "-window", "500ms"}},
		{"matrix-list", []string{"-matrix", "list"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, c.args); err != nil {
				t.Fatalf("run(%v): %v", c.args, err)
			}
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("rstorm-sim %v differs from %s (rerun with -update if the change is intended):\n--- want ---\n%s\n--- got ---\n%s",
					c.args, path, want, got)
			}
		})
	}
}
