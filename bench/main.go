// Command rstorm-bench is the repository's benchmark: five workloads that
// together exercise every layer of the reproduction, each run in its own
// process for a fixed wall-clock budget. An untraced run prints the
// end-to-end metrics; a traced run (-trace 1) records spans around every
// call the benchmark makes into a layer and prints the per-layer metrics.
// BENCHMARK.json at the repository root declares both lists, and README.md
// explains them.
//
//	go build -o rstorm-bench . && ./rstorm-bench -workload rack-scale -seed 1
//	./rstorm-bench -compare base.jsonl head.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one benchmark workload; run sets it up and spends the
// runner's budget on its ops.
type workload struct {
	name string
	run  func(r *runner) error
}

var allWorkloads = []workload{
	{"paper-suite", runSuite},
	{"paper-chain", runChain},
	{"rack-scale", runRackScale},
	{"rack-churn", runRackChurn},
	{"control-plane", runControlPlane},
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rstorm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "wall-clock budget of the run, set-up included")
	trace := fs.Int("trace", 0, "1 traces the run and reports per-layer metrics; 0 reports end-to-end metrics")
	out := fs.String("out", "", "append the run record as one JSON line to this file; a traced run also writes its spans to <out>.spans.json")
	compare := fs.Bool("compare", false, "compare two JSON-lines files of run records, named as arguments, against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark declaration -compare reads bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "-compare needs two files: base.jsonl head.jsonl")
			return 2
		}
		if err := compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "-trace %d: want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "-seconds %v: want > 0\n", *seconds)
		return 2
	}
	rec, tr, err := runWorkload(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	printRecord(stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if tr != nil {
			if err := tr.WriteFile(*out + ".spans.json"); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	if err := printResult(stdout, rec); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// runWorkload runs one workload for budget and returns its record, plus
// the tracer of a traced run. short shrinks every input for smoke tests.
func runWorkload(name string, seed int64, budget time.Duration, traced, short bool, log io.Writer) (*Record, *Tracer, error) {
	var wl *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == name {
			wl = &allWorkloads[i]
		}
	}
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q: want one of %s", name, strings.Join(workloadNames(), ", "))
	}
	r := newRunner(seed, budget, traced, short, log)
	var probes map[string]Metric
	if traced {
		var err error
		if probes, err = runProbes(seed, short); err != nil {
			return nil, nil, fmt.Errorf("probes: %w", err)
		}
	}
	if err := wl.run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return r.record(name, probes), r.tr, nil
}

// printRecord prints every metric as `name value unit (n=…, q1/q3)`,
// declared metrics first, then the workload's extra numbers.
func printRecord(w io.Writer, rec *Record) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: attempted %d failed %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	for _, group := range []map[string]Metric{rec.Metrics, rec.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			line := fmt.Sprintf("%s %.6g %s", n, m.Value, m.Unit)
			switch {
			case m.Q1 != 0 || m.Q3 != 0:
				line += fmt.Sprintf(" (n=%d, q1/q3 %.6g/%.6g)", m.N, m.Q1, m.Q3)
			case m.N > 0:
				line += fmt.Sprintf(" (n=%d)", m.N)
			}
			fmt.Fprintln(w, line)
		}
	}
}

// printResult prints the one-line JSON result every run ends its standard
// output with: correct, attempted, failed, and the declared metrics, value
// and unit only.
func printResult(w io.Writer, rec *Record) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]value)}
	for n, m := range rec.Metrics {
		out.Metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

func appendRecord(path string, rec *Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
