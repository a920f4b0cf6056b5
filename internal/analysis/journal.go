package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// journalCodePkg is the package declaring the journal's reason codes.
const journalCodePkg = "internal/trace"

// NewJournal builds the journal-exhaustiveness analyzer. The decision
// journal's reason codes (the Code* string constants in the package whose
// path contains codepkg; here internal/trace) are the taxonomy every
// control-plane event is filed under; the analyzer keeps that taxonomy
// honest in both directions:
//
//   - every switch whose cases compare against Code* constants must list
//     every declared code — a new code silently falling into a default
//     branch is exactly the blind spot the journal exists to close;
//   - every code declared outside test files must be referenced from a
//     non-test file somewhere in the run (a whole-program check: a code
//     only a test records is one the program never journals).
//
// Escape hatch: //rstorm:journal-ok <reason> on the switch statement.
func NewJournal(codepkg string) *Analyzer {
	a := &Analyzer{
		Name: "journal",
		Doc:  "require journal reason-code switches to be exhaustive and every declared code to be recorded",
	}
	st := &journalState{
		codepkg:  codepkg,
		declared: make(map[string]token.Position),
		used:     make(map[string]bool),
	}
	a.Run = func(pass *Pass) error {
		st.pass(pass)
		return nil
	}
	a.Finish = func(report func(Diagnostic)) {
		names := make([]string, 0, len(st.declared))
		for name := range st.declared {
			if !st.used[name] {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			report(Diagnostic{
				Pos:      st.declared[name],
				Analyzer: "journal",
				Message:  "journal code " + name + " is declared but never recorded anywhere",
			})
		}
	}
	return a
}

type journalState struct {
	codepkg  string
	declared map[string]token.Position
	used     map[string]bool
}

// isCodeConst reports whether obj is a journal reason-code constant: a
// Code*-named string constant declared in the code package.
func (st *journalState) isCodeConst(obj types.Object) bool {
	c, ok := obj.(*types.Const)
	if !ok || !strings.HasPrefix(c.Name(), "Code") || c.Pkg() == nil {
		return false
	}
	if !strings.Contains(c.Pkg().Path(), st.codepkg) {
		return false
	}
	return c.Val().Kind() == constant.String
}

func (st *journalState) pass(p *Pass) {
	declaring := strings.Contains(p.Pkg.Path(), st.codepkg)
	if declaring {
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); st.isCodeConst(obj) && !p.inTestFile(obj.Pos()) {
				st.declared[name] = p.Fset.Position(obj.Pos())
			}
		}
	}
	// Usage: any reference to a code constant from a non-test file counts
	// as "recorded" — journaling flows through wrappers (journalRecord,
	// Record, Append), so call-site shape is not constrained.
	for id, obj := range p.Info.Uses {
		if st.isCodeConst(obj) && !p.inTestFile(id.Pos()) {
			st.used[obj.Name()] = true
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sw, ok := n.(*ast.SwitchStmt); ok {
				st.checkSwitch(p, sw)
			}
			return true
		})
	}
}

// checkSwitch enforces exhaustiveness on switches over journal codes: if
// two or more cases compare against Code* constants, every declared code
// of that package must appear. A default clause does not exempt the
// switch — catching codes you did not think about is the failure mode,
// not the feature — but //rstorm:journal-ok does.
func (st *journalState) checkSwitch(p *Pass, sw *ast.SwitchStmt) {
	listed := make(map[string]bool)
	var codePkg *types.Package
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			obj := st.exprObject(p, e)
			if obj != nil && st.isCodeConst(obj) {
				listed[obj.Name()] = true
				codePkg = obj.Pkg()
			}
		}
	}
	if len(listed) < 2 || codePkg == nil {
		return
	}
	var missing []string
	scope := codePkg.Scope()
	for _, name := range scope.Names() {
		if st.isCodeConst(scope.Lookup(name)) && !listed[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	p.Reportf(sw.Pos(), "journal-ok",
		"switch over journal codes is not exhaustive: missing %s", strings.Join(missing, ", "))
}

func (st *journalState) exprObject(p *Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return p.Info.Uses[e]
	case *ast.SelectorExpr:
		return p.Info.Uses[e.Sel]
	}
	return nil
}
