package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"
)

// This file implements the `go vet -vettool` protocol (a stdlib-only
// analogue of x/tools' unitchecker): cmd/go invokes the tool once with
// -V=full to obtain a cache key, then once per package with the path to
// a vet.cfg JSON file describing one compilation unit — absolute source
// paths plus export-data locations for every dependency. Diagnostics go
// to stderr and a non-zero exit marks the unit failed, which is exactly
// how cmd/go surfaces vet findings.
//
// The whole-program checks (the journal analyzer's unused-code check and
// the orphan-package analyzer) need to see every package of a run and
// therefore only execute in standalone mode (RunPatterns); a vettool unit
// checks everything else.

// vetConfig mirrors cmd/go's vetConfig (work/exec.go). Fields the unit
// checker does not consume are accepted and ignored by encoding/json.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	Standard     map[string]bool
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string
	GoVersion    string

	SucceedOnTypecheckFailure bool
}

// Main is the rstorm-lint entry point.
func Main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches between the vettool protocol and the standalone
// multichecker and returns the process exit code:
//
//	rstorm-lint ./...                     standalone over packages
//	go vet -vettool=$(which rstorm-lint)  unit mode driven by cmd/go
//
// Analyzer flags are registered as -<analyzer>.<flag> in both modes.
func run(args []string, stdout, stderr io.Writer) int {
	analyzers := Suite()
	fs := flag.NewFlagSet("rstorm-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, a := range analyzers {
		for name, value := range a.Flags {
			fs.String(a.Name+"."+name, *value, a.Name+" analyzer: "+name)
		}
	}
	versionFlag := fs.Bool("V", false, "print version and exit (cmd/go tool-ID handshake)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON and exit (cmd/go handshake)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(),
			"usage: rstorm-lint [flags] [packages]\n   or: go vet -vettool=$(which rstorm-lint) [packages]\n")
		fs.PrintDefaults()
	}
	// cmd/go invokes the tool with -V=full; stdlib flag accepts -V=true
	// style booleans only, so rewrite before parsing.
	args = append([]string(nil), args...)
	for i, arg := range args {
		if arg == "-V=full" {
			args[i] = "-V"
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *versionFlag {
		printVersion(stdout)
		return 0
	}
	if *flagsFlag {
		printFlags(stdout, fs)
		return 0
	}
	// Propagate parsed flag values back into the analyzers.
	for _, a := range analyzers {
		for name, value := range a.Flags {
			if f := fs.Lookup(a.Name + "." + name); f != nil {
				*value = f.Value.String()
			}
		}
	}
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return unitCheck(rest[0], analyzers, stderr)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	count, err := RunPatterns(stdout, ".", rest, analyzers)
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

// printVersion emits the tool-ID line cmd/go parses: the "devel" form
// keys the vet result cache on the binary's content hash, so rebuilding
// rstorm-lint invalidates stale cached verdicts.
func printVersion(w io.Writer) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Fprintf(w, "rstorm-lint version devel comments-go-here buildID=%x\n", h.Sum(nil))
}

// printFlags emits the JSON flag inventory cmd/go requests via -flags so
// it can validate pass-through -<analyzer>.<flag> arguments.
func printFlags(w io.Writer, fs *flag.FlagSet) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, _ := json.MarshalIndent(flags, "", "\t")
	w.Write(data)
	fmt.Fprintln(w)
}

// unitCheck analyzes one vet.cfg compilation unit, returning the process
// exit code.
func unitCheck(cfgFile string, analyzers []*Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, "rstorm-lint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "rstorm-lint: parsing %s: %v\n", cfgFile, err)
		return 2
	}
	// cmd/go expects the vetx (facts) output to exist afterwards; the
	// suite carries no cross-package facts, so an empty file suffices.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("rstorm-lint\n"), 0o666); err != nil {
			fmt.Fprintln(stderr, "rstorm-lint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, cfg.PackageFile, cfg.ImportMap)
	pkg, err := typeCheck(fset, cfg.ImportPath, cfg.Dir, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "rstorm-lint: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	diags, err := runAnalyzers(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "rstorm-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
