package analysis

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Main is the rstorm-lint entry point.
func Main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages the arguments name (./... when none) and
// returns the process exit code: 0 clean, 1 findings, 2 a usage or load
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rstorm-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: rstorm-lint [packages]") }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	count, err := RunPatterns(stdout, ".", patterns, Suite())
	if err != nil {
		fmt.Fprintln(stderr, "rstorm-lint:", err)
		return 2
	}
	if count > 0 {
		fmt.Fprintf(stderr, "rstorm-lint: %d finding(s)\n", count)
		return 1
	}
	return 0
}

// RunPatterns loads every package matched by the go-list patterns
// (relative to dir), test files included, runs the analyzer suite over
// each, then runs each analyzer's whole-program Finish. Diagnostics are
// written to w in file/line order per package; the returned count is the
// number of findings (0 means the tree is clean).
func RunPatterns(w io.Writer, dir string, patterns []string, analyzers []*Analyzer) (int, error) {
	pkgs, err := loadPatterns(dir, patterns)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, pkg := range pkgs {
		diags, err := runAnalyzers(pkg, analyzers)
		if err != nil {
			return count, err
		}
		for _, d := range diags {
			fmt.Fprintln(w, d)
			count++
		}
	}
	var finish []Diagnostic
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(func(d Diagnostic) { finish = append(finish, d) })
		}
	}
	sortDiagnostics(finish)
	for _, d := range finish {
		fmt.Fprintln(w, d)
		count++
	}
	return count, nil
}
