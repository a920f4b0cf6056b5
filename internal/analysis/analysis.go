// Package analysis is rstorm-lint: a suite of static analyzers that turn
// the repository's headline invariants — seeded determinism, zero-alloc
// hot paths, journal-code exhaustiveness, run-owned state, no orphan
// internal packages — into compile-time checked facts (DESIGN.md §9).
//
// The golden-diff harness and the allocation benchmarks enforce these
// invariants dynamically, but only over the paths a run happens to
// exercise. The analyzers here prove them over all paths: an unordered
// map range feeding a report, a stray time.Now in the control plane, a
// fmt call inside a //rstorm:hotpath function, or a journal reason code
// that no switch handles all fail CI before any experiment runs.
//
// The suite mirrors the shapes of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is self-contained on the standard
// library: the module has no external dependencies and the container
// builds offline, so rstorm-lint loads packages itself via `go list
// -test -export` and type-checks with go/types against gc export data,
// test files included. The cmd/rstorm-lint binary (`rstorm-lint ./...`) is
// the one front end: it runs every check over every file, then the
// whole-program checks over the run, and a future migration onto x/tools
// is a mechanical rename.
//
// Suppressions are explicit and carry a written reason:
//
//	//rstorm:unordered-ok reason   map-iteration finding accepted
//	//rstorm:wallclock-ok reason   time.Now / global rand accepted
//	//rstorm:alloc-ok reason       hot-path allocation accepted
//	//rstorm:global-ok reason      package-level var accepted
//
// A suppression with no reason is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run is invoked once per package; Finish,
// when set, runs after every package of a run and may report
// whole-program findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
	// Finish reports whole-program diagnostics accumulated across passes.
	Finish func(report func(Diagnostic))
}

// A Pass provides one package's syntax and type information to an
// analyzer, plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	report   func(Diagnostic)
}

// A Diagnostic is one finding. Category names the suppression token
// (without the "//rstorm:" prefix) that silences it; an empty Category is
// unsuppressable (used for malformed suppressions themselves).
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Category string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// inTestFile reports whether pos lies in a _test.go file. The
// whole-program checks judge what the program itself uses, so they skip
// test files.
func (p *Pass) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// Reportf records a finding at pos under the given suppression category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppression is one parsed //rstorm:<token>-ok comment.
type suppression struct {
	token  string // e.g. "unordered-ok"
	reason string
	pos    token.Position
	used   bool
}

// suppressionSet indexes a package's //rstorm: suppression comments by
// file and line.
type suppressionSet struct {
	byLine map[string]map[int]*suppression
}

// collectSuppressions scans the files' comments for rstorm suppression
// directives. Only "-ok" tokens participate; //rstorm:hotpath is an
// annotation, not a suppression.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	set := &suppressionSet{byLine: make(map[string]map[int]*suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//rstorm:")
				if !ok {
					continue
				}
				tok, reason, _ := strings.Cut(text, " ")
				if !strings.HasSuffix(tok, "-ok") {
					continue
				}
				// Golden suites pin suppression behaviour with trailing
				// `// want` clauses; those are expectations, not reasons.
				if i := strings.Index(reason, "// want"); i >= 0 {
					reason = reason[:i]
				}
				pos := fset.Position(c.Pos())
				lines := set.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]*suppression)
					set.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = &suppression{
					token:  tok,
					reason: strings.TrimSpace(reason),
					pos:    pos,
				}
			}
		}
	}
	return set
}

// filter applies the suppression set to raw diagnostics: a finding whose
// line (or the line above it) carries a matching //rstorm:<category>
// comment is dropped — unless the comment has no reason, in which case
// the finding is replaced by an unsuppressable "missing reason" one.
// Suppression comments that matched nothing are reported too: a stale
// suppression hides nothing and should be deleted.
func (set *suppressionSet) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		s := set.lookup(d.Pos.Filename, d.Pos.Line, d.Category)
		if s == nil {
			out = append(out, d)
			continue
		}
		s.used = true
		if s.reason == "" {
			out = append(out, Diagnostic{
				Pos:      s.pos,
				Analyzer: d.Analyzer,
				Message:  fmt.Sprintf("//rstorm:%s suppression missing a reason", s.token),
			})
		}
	}
	return out
}

func (set *suppressionSet) lookup(file string, line int, category string) *suppression {
	if category == "" {
		return nil
	}
	lines := set.byLine[file]
	if lines == nil {
		return nil
	}
	for _, l := range []int{line, line - 1} {
		if s := lines[l]; s != nil && s.token == category {
			return s
		}
	}
	return nil
}

// unused returns "suppresses nothing" diagnostics for suppression
// comments no analyzer finding matched, in file/line order.
func (set *suppressionSet) unused(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range set.byLine {
		for _, s := range lines {
			if !s.used && known[s.token] {
				out = append(out, Diagnostic{
					Pos:      s.pos,
					Analyzer: "rstorm-lint",
					Message:  fmt.Sprintf("//rstorm:%s suppresses nothing; delete it", s.token),
				})
			}
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// runAnalyzers executes the suite over one loaded package, applying
// suppressions, and returns the surviving diagnostics.
func runAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			report:   func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
		}
	}
	set := collectSuppressions(pkg.Fset, pkg.Files)
	diags := set.filter(raw)
	diags = append(diags, set.unused(suppressionTokens(analyzers))...)
	sortDiagnostics(diags)
	return diags, nil
}

// suppressionTokens returns the categories the given analyzers can emit,
// so unused-suppression reporting ignores tokens belonging to analyzers
// not in this run.
func suppressionTokens(analyzers []*Analyzer) map[string]bool {
	known := make(map[string]bool)
	for _, a := range analyzers {
		for _, tok := range analyzerCategories[a.Name] {
			known[tok] = true
		}
	}
	return known
}

// analyzerCategories names each analyzer's suppression tokens (kept in
// one place so unused-suppression detection and DESIGN.md stay in sync).
var analyzerCategories = map[string][]string{
	"determinism": {"unordered-ok", "wallclock-ok"},
	"hotpath":     {"alloc-ok"},
	"journal":     {"journal-ok"},
	"globalvar":   {"global-ok"},
}

// Suite returns fresh instances of all five analyzers, configured for this
// repository. Instances carry per-run state (the journal and orphan
// analyzers accumulate cross-package usage), so each invocation needs its
// own.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(determinismScope),
		NewHotpath(),
		NewJournal(journalCodePkg),
		NewGlobalvar(globalvarScope),
		NewOrphan(),
	}
}
