package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// globalvarScope lists the packages an orchestrated run can reach.
const globalvarScope = "rstorm/internal/core,rstorm/internal/nimbus,rstorm/internal/adaptive," +
	"rstorm/internal/simulator,rstorm/internal/experiments,rstorm/internal/orchestra," +
	"rstorm/internal/des,rstorm/internal/cluster,rstorm/internal/topology," +
	"rstorm/internal/workloads,rstorm/internal/metrics,rstorm/internal/trace," +
	"rstorm/internal/faults,rstorm/internal/viz,rstorm/internal/resource," +
	"rstorm/internal/statestore,rstorm/internal/pardes"

// NewGlobalvar builds the globalvar analyzer: within the packages scope
// lists (see pathInScope; here globalvarScope — the simulator, the
// scheduling core and control plane, the experiment registry, the
// orchestrator itself and every rendering/measurement package they pull
// in), no package-level `var` may exist. The parallel scenario
// orchestrator (DESIGN.md §10) runs many simulator instances
// concurrently under the run-isolation invariant "a run owns every piece
// of state it touches"; a package-level variable is exactly the state no
// run owns, so it is either a data race or a cross-run determinism leak
// waiting for a write.
//
// Two shapes are exempt because they are conventionally immutable:
//
//   - blank assertions (`var _ Iface = (*T)(nil)`), which exist only for
//     the type checker;
//   - error sentinels (any var whose static type implements error),
//     which are written once at init and compared with errors.Is.
//
// Everything else — maps, slices, counters, freelists, sync.Once caches,
// rand sources — must either move into per-run state or carry a
// reasoned //rstorm:global-ok suppression arguing why shared access is
// safe (e.g. write-once-before-first-read under sync.Once).
func NewGlobalvar(scope string) *Analyzer {
	a := &Analyzer{
		Name: "globalvar",
		Doc:  "flag package-level mutable state reachable from orchestrated runs",
	}
	a.Run = func(pass *Pass) error {
		if !pathInScope(pass.Pkg.Path(), scope) {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						checkGlobalVar(pass, name)
					}
				}
			}
		}
		return nil
	}
	return a
}

func checkGlobalVar(pass *Pass, name *ast.Ident) {
	if name.Name == "_" {
		return // type assertion for the checker, no storage anyone reads
	}
	obj := pass.Info.Defs[name]
	if obj == nil {
		return
	}
	if isErrorSentinel(obj.Type()) {
		return
	}
	pass.Reportf(name.Pos(), "global-ok",
		"package-level var %q is mutable state reachable from orchestrated runs: "+
			"parallel runs must own their state (move it into the run's instance, or "+
			"suppress with a reasoned //rstorm:global-ok)", name.Name)
}

// isErrorSentinel reports whether t implements the error interface —
// the `var ErrFoo = errors.New(...)` convention, written once at
// package init and only ever compared afterwards.
func isErrorSentinel(t types.Type) bool {
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errIface)
}
