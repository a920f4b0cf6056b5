package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// determinismScope lists the scheduling and control-plane packages the
// determinism analyzer checks.
const determinismScope = "rstorm/internal/core,rstorm/internal/nimbus,rstorm/internal/adaptive," +
	"rstorm/internal/simulator,rstorm/internal/experiments,rstorm/internal/pardes"

// NewDeterminism builds the determinism analyzer. Within the packages
// scope lists (comma-separated; see pathInScope), it enforces the seeded
// byte-identical-results invariant the golden-diff harness checks
// dynamically:
//
//   - a `range` over a map must not feed an order-sensitive sink: an
//     append to an outer slice that is never sorted afterwards, a
//     report/journal write (fmt.Fprint*, Write*, Journal.Record), a
//     floating-point accumulation (FP addition is not associative), or a
//     best-candidate selection (argmin/argmax over iteration order —
//     the shape of a placement decision);
//   - time.Now must not be called: virtual time comes from the DES
//     engine, wall time from nowhere;
//   - the global math/rand source must not be used: all randomness flows
//     through a seeded *rand.Rand.
//
// Escape hatches: //rstorm:unordered-ok <reason> on the finding's line
// (or the line above) for map-iteration findings, //rstorm:wallclock-ok
// <reason> for clock/rand findings.
func NewDeterminism(scope string) *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "flag map-iteration-order and wall-clock dependence in scheduling and control-plane packages",
	}
	a.Run = func(pass *Pass) error {
		if !pathInScope(pass.Pkg.Path(), scope) {
			return nil
		}
		d := &determinismPass{pass: pass}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						d.checkFunc(n.Body)
					}
					return true
				case *ast.CallExpr:
					d.checkCall(n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// pathInScope reports whether importPath matches any comma-separated
// element of scope (substring match, so "rstorm/internal/core" also
// covers its external tests, rstorm/internal/core_test, and "determinism"
// covers testdata packages).
func pathInScope(importPath, scope string) bool {
	for _, s := range strings.Split(scope, ",") {
		if s != "" && strings.Contains(importPath, s) {
			return true
		}
	}
	return false
}

type determinismPass struct {
	pass *Pass
}

// checkCall flags wall-clock and global-rand calls anywhere in scope.
func (d *determinismPass) checkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkg := d.packageOf(sel.X)
	switch {
	case pkg == "time" && sel.Sel.Name == "Now":
		d.pass.Reportf(call.Pos(), "wallclock-ok",
			"time.Now in a deterministic package: use the DES engine's virtual clock")
	case pkg == "math/rand" && !seededRandConstructor(sel.Sel.Name):
		d.pass.Reportf(call.Pos(), "wallclock-ok",
			"global math/rand.%s is unseeded: draw from a seeded *rand.Rand", sel.Sel.Name)
	}
}

// seededRandConstructor reports whether a math/rand package function is
// part of the sanctioned seed plumbing rather than a draw from the
// global source.
func seededRandConstructor(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf":
		return true
	}
	return false
}

// packageOf resolves an expression to the import path of the package it
// names, or "" if it is not a package qualifier.
func (d *determinismPass) packageOf(x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := d.pass.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// checkFunc classifies every map range in one function body.
func (d *determinismPass) checkFunc(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := d.pass.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			d.checkMapRange(body, rs)
		}
		return true
	})
}

// checkMapRange applies the order-sensitivity rules to one map range.
func (d *determinismPass) checkMapRange(fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	iterVars := d.rangeVars(rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rs {
				// A nested map range is classified on its own.
				if tv, ok := d.pass.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
		case *ast.AssignStmt:
			d.checkAssign(fnBody, rs, n)
		case *ast.CallExpr:
			d.checkSinkCall(n)
		case *ast.IfStmt:
			d.checkSelection(rs, iterVars, n)
		}
		return true
	})
}

// rangeVars returns the objects bound by the range's key and value.
func (d *determinismPass) rangeVars(rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := d.pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := d.pass.Info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

// checkAssign flags order-sensitive accumulation inside a map range:
// appends to outer slices that are never sorted, and floating-point
// read-modify-write (addition order changes the low bits).
func (d *determinismPass) checkAssign(fnBody *ast.BlockStmt, rs *ast.RangeStmt, as *ast.AssignStmt) {
	// Floating-point accumulation: x += v, x -= v, x *= v, x /= v.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) == 1 && d.typeHasFloat(as.Lhs[0]) && !d.keyedByRangeKey(as.Lhs[0], rs) {
			d.pass.Reportf(as.Pos(), "unordered-ok",
				"floating-point accumulation in map-iteration order: result bits depend on traversal")
		}
		return
	case token.ASSIGN, token.DEFINE:
	default:
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		// x = x.Add(y) / m[k] = m[k].Add(v): read-modify-write of float-
		// bearing storage, same non-associativity as +=.
		if as.Tok == token.ASSIGN && d.typeHasFloat(lhs) && !d.keyedByRangeKey(lhs, rs) {
			lstr := types.ExprString(lhs)
			if lstr != "" && strings.Contains(types.ExprString(as.Rhs[i]), lstr) {
				d.pass.Reportf(as.Pos(), "unordered-ok",
					"floating-point accumulation in map-iteration order: result bits depend on traversal")
				continue
			}
		}
		// out = append(out, ...) into a slice declared outside the loop.
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok || !d.isBuiltinAppend(call) {
			continue
		}
		target, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := d.objectOf(target)
		if obj == nil || d.declaredWithin(obj, rs) {
			continue
		}
		if d.sortedAfter(fnBody, rs, obj) {
			continue
		}
		d.pass.Reportf(as.Pos(), "unordered-ok",
			"append to %q in map-iteration order without a later sort", target.Name)
	}
}

// keyedByRangeKey reports whether lhs is an index expression whose index
// is exactly the range's key variable. Map keys are unique, so such
// storage is written once per iteration: the per-key operation happens a
// fixed number of times regardless of traversal order, and the writes
// commute across distinct keys. `avail[node] = avail[node].Sub(used)`
// inside `for node, used := range reserved` is deterministic;
// `out[p.Node] = out[p.Node].Add(d)` (key derived from the value) is not.
func (d *determinismPass) keyedByRangeKey(lhs ast.Expr, rs *ast.RangeStmt) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	if !ok {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	obj := d.objectOf(id)
	return obj != nil && obj == d.objectOf(key)
}

func (d *determinismPass) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := d.pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

func (d *determinismPass) objectOf(id *ast.Ident) types.Object {
	if obj := d.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return d.pass.Info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside the range
// statement (a per-iteration temporary is order-local).
func (d *determinismPass) declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

// sortedAfter reports whether, after the range statement, the enclosing
// function calls into package sort or slices with the accumulated slice
// as an argument — the "intervening sort" that restores determinism.
func (d *determinismPass) sortedAfter(fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() || sorted {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg := d.packageOf(sel.X); pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && d.objectOf(id) == obj {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// checkSinkCall flags report/journal writes inside a map range: output
// record order would follow traversal order.
func (d *determinismPass) checkSinkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if pkg := d.packageOf(sel.X); pkg == "fmt" {
		if strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Print") {
			d.pass.Reportf(call.Pos(), "unordered-ok",
				"fmt.%s inside a map range writes records in iteration order", name)
		}
		return
	}
	switch {
	case strings.HasPrefix(name, "Write"): // Write, WriteString, WriteByte, ...
		d.pass.Reportf(call.Pos(), "unordered-ok",
			"%s inside a map range writes records in iteration order", name)
	case name == "Record" || name == "Append":
		if d.receiverNamed(sel, "Journal") {
			d.pass.Reportf(call.Pos(), "unordered-ok",
				"journal %s inside a map range assigns sequence numbers in iteration order", name)
		}
	}
}

// receiverNamed reports whether the selector's receiver type (after
// pointer indirection) has the given name.
func (d *determinismPass) receiverNamed(sel *ast.SelectorExpr, name string) bool {
	tv, ok := d.pass.Info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// checkSelection flags argmin/argmax-style candidate selection inside a
// map range: `if cand < best { best, bestKey = cand, k }` picks a winner
// in iteration order, so ties (and FP comparisons) depend on traversal —
// the exact shape of a placement decision fed by an unordered map.
func (d *determinismPass) checkSelection(rs *ast.RangeStmt, iterVars map[types.Object]bool, ifs *ast.IfStmt) {
	if !d.hasOrderedComparison(ifs.Cond) {
		return
	}
	reported := false
	ast.Inspect(ifs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || reported {
			return !reported
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := d.objectOf(id)
			if obj == nil || d.declaredWithin(obj, rs) {
				continue
			}
			if i < len(as.Rhs) && d.mentionsAny(as.Rhs[i], iterVars) {
				d.pass.Reportf(ifs.Pos(), "unordered-ok",
					"best-candidate selection over map iteration: winner depends on traversal order")
				reported = true
				return false
			}
		}
		return true
	})
}

func (d *determinismPass) hasOrderedComparison(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				found = true
			}
		}
		return !found
	})
	return found
}

func (d *determinismPass) mentionsAny(e ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[d.objectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// typeHasFloat reports whether an expression's type contains a
// floating-point component (directly, or via struct fields / arrays).
func (d *determinismPass) typeHasFloat(e ast.Expr) bool {
	tv, ok := d.pass.Info.Types[e]
	if !ok {
		return false
	}
	return typeHasFloat(tv.Type, 0)
}

func typeHasFloat(t types.Type, depth int) bool {
	if depth > 4 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0 || u.Info()&types.IsComplex != 0
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeHasFloat(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return typeHasFloat(u.Elem(), depth+1)
	}
	return false
}
