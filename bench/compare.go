package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// spec is BENCHMARK.json. -compare reads the workloads and the end-to-end
// bounds; the contract test checks the rest against the code.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readRecords reads a JSON-lines file of run records, as -out appends them.
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// comparison is one workload and end-to-end metric across two sets of runs.
type comparison struct {
	workload, metric string
	base, head       Summary
	delta            float64 // relative change of the median, head against base
	bound            float64
	verdict          string
}

// compareSets compares the untraced runs of two sets, metric by metric.
// A change worse than the bound is "worse"; an improvement beyond the
// base's own spread is "better"; otherwise "same". Where either set's
// spread exceeds the bound the medians cannot be told apart, so the
// verdict is "unresolved", unless every head run beats (or trails) every
// base run.
func compareSets(sp spec, base, head []Record) []comparison {
	values := func(recs []Record, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var out []comparison
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := values(base, w.Name, m.Name), values(head, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			c := comparison{workload: w.Name, metric: m.Name, base: Summarize(a), head: Summarize(b), bound: m.Bound}
			c.delta = c.head.Median/c.base.Median - 1
			worse := c.delta
			if m.Better == "higher" {
				worse = -worse
			}
			// headWins/headLoses: every head run beats/trails every base run.
			headWins, headLoses := c.head.Max < c.base.Min, c.head.Min > c.base.Max
			if m.Better == "higher" {
				headWins, headLoses = c.head.Min > c.base.Max, c.head.Max < c.base.Min
			}
			switch {
			case max(c.base.Spread(), c.head.Spread()) > m.Bound:
				c.verdict = "unresolved"
				if headWins {
					c.verdict = "better"
				} else if headLoses {
					c.verdict = "worse"
				}
			case worse > m.Bound:
				c.verdict = "worse"
			case -worse > c.base.Spread():
				c.verdict = "better"
			default:
				c.verdict = "same"
			}
			out = append(out, c)
		}
	}
	return out
}

// compareFiles prints the comparison of two JSON-lines files of runs.
func compareFiles(w io.Writer, specPath, basePath, headPath string) error {
	var sp spec
	if err := readJSON(specPath, &sp); err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	rows := compareSets(sp, base, head)
	if len(rows) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", basePath, headPath)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] n\thead median [q1, q3] n\tdelta\tbound\tverdict")
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%+.1f%%\t%.0f%%\t%s\n",
			c.workload, c.metric, c.base.Median, c.base.Q1, c.base.Q3, c.base.N,
			c.head.Median, c.head.Q1, c.head.Q3, c.head.N, c.delta*100, c.bound*100, c.verdict)
	}
	return tw.Flush()
}
