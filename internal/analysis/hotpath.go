package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewHotpath builds the hot-path allocation analyzer. Functions annotated
// with a //rstorm:hotpath comment (DES event-queue operations, tuple
// delivery and completion, histogram recording, edge counters, queue-byte
// memory accounting) carry the repository's "N integer adds per tuple" claims;
// the analyzer rejects constructs that put an allocation, a write
// barrier, or a dynamic dispatch setup on such a path:
//
//   - defer (defer records) and go (goroutine + closure)
//   - function literals (closure environments escape or allocate)
//   - any call into fmt (formatting allocates and reflects)
//   - map literals and make(map) (hash table allocation)
//   - converting a concrete non-pointer value to an interface (boxing);
//     pointers are exempt — the pointer is the interface word
//   - calls on a known-allocating denylist (sort.Slice and friends,
//     errors.New, strconv/strings/bytes/log/regexp/encoding helpers)
//
// Escape hatch: //rstorm:alloc-ok <reason> on the offending line.
// Amortized-zero patterns (append into a retained pool or ring) are
// deliberately not flagged: the free lists grow to the simulation's peak
// population and then stop allocating.
func NewHotpath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "forbid allocating constructs in functions annotated //rstorm:hotpath",
	}
	a.Run = func(pass *Pass) error {
		h := &hotpathPass{pass: pass}
		for _, f := range pass.Files {
			hot := hotpathFuncs(pass.Fset, f)
			for _, fn := range hot {
				h.checkFunc(fn)
			}
		}
		return nil
	}
	return a
}

// hotpathFuncs returns the file's function declarations annotated with a
// //rstorm:hotpath comment — in the doc group or on the line directly
// above the declaration (directive-style comments detach from doc
// groups, so both placements are honoured).
func hotpathFuncs(fset *token.FileSet, f *ast.File) []*ast.FuncDecl {
	annotated := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if text, ok := strings.CutPrefix(c.Text, "//rstorm:hotpath"); ok {
				if text == "" || text[0] == ' ' {
					annotated[fset.Position(c.Pos()).Line] = true
				}
			}
		}
	}
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		start := fset.Position(fn.Pos()).Line
		if fn.Doc != nil {
			start = fset.Position(fn.Doc.Pos()).Line
		}
		for line := start - 1; line < fset.Position(fn.Pos()).Line+1; line++ {
			if annotated[line] {
				out = append(out, fn)
				break
			}
		}
	}
	return out
}

type hotpathPass struct {
	pass *Pass
}

func (h *hotpathPass) checkFunc(fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			h.pass.Reportf(n.Pos(), "alloc-ok",
				"defer in hot path %s: defer records cost on every call", name)
		case *ast.GoStmt:
			h.pass.Reportf(n.Pos(), "alloc-ok",
				"go statement in hot path %s: goroutine launch allocates", name)
		case *ast.FuncLit:
			h.pass.Reportf(n.Pos(), "alloc-ok",
				"closure in hot path %s: captured environment allocates", name)
			return false // the literal's body is not this function's path
		case *ast.CompositeLit:
			if tv, ok := h.pass.Info.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					h.pass.Reportf(n.Pos(), "alloc-ok",
						"map literal in hot path %s: hash table allocation", name)
				}
			}
		case *ast.CallExpr:
			h.checkCall(name, n)
		}
		return true
	})
}

func (h *hotpathPass) checkCall(fnName string, call *ast.CallExpr) {
	// make(map[...]...) allocates a hash table.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := h.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "make" && len(call.Args) > 0 {
			if tv, ok := h.pass.Info.Types[call.Args[0]]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					h.pass.Reportf(call.Pos(), "alloc-ok",
						"make(map) in hot path %s: hash table allocation", fnName)
				}
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := h.pass.Info.Uses[id].(*types.PkgName); ok {
				h.checkDenylist(fnName, call, pn.Imported().Path(), sel.Sel.Name)
			}
		}
	}
	h.checkInterfaceArgs(fnName, call)
}

// allocDenylist maps package path → denied function names; "*" denies the
// whole package.
var allocDenylist = map[string][]string{
	"fmt":           {"*"},
	"log":           {"*"},
	"regexp":        {"*"},
	"encoding/json": {"*"},
	"sort":          {"Slice", "SliceStable", "Stable", "Sort", "SliceIsSorted"},
	"errors":        {"New"},
	"strconv":       {"Itoa", "FormatInt", "FormatUint", "FormatFloat", "Quote"},
	"strings":       {"Join", "Repeat", "Split", "Fields", "Replace", "ReplaceAll", "ToUpper", "ToLower", "NewReader"},
	"bytes":         {"NewBuffer", "NewBufferString", "Join", "Repeat", "Split"},
}

func (h *hotpathPass) checkDenylist(fnName string, call *ast.CallExpr, pkgPath, sym string) {
	denied, ok := allocDenylist[pkgPath]
	if !ok {
		return
	}
	for _, d := range denied {
		if d == "*" || d == sym {
			h.pass.Reportf(call.Pos(), "alloc-ok",
				"%s.%s in hot path %s: known-allocating call", pkgPath, sym, fnName)
			return
		}
	}
}

// checkInterfaceArgs flags call arguments (and explicit conversions)
// that box a concrete non-pointer value into an interface. Passing a
// pointer is free — the pointer is the interface's data word — so only
// value boxing is reported.
func (h *hotpathPass) checkInterfaceArgs(fnName string, call *ast.CallExpr) {
	if tv, ok := h.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		// Explicit conversion T(x).
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			h.reportBoxing(fnName, call.Args[0], tv.Type)
		}
		return
	}
	tv, ok := h.pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			h.reportBoxing(fnName, arg, pt)
		}
	}
}

func (h *hotpathPass) reportBoxing(fnName string, arg ast.Expr, target types.Type) {
	tv, ok := h.pass.Info.Types[arg]
	if !ok || tv.Type == nil {
		return
	}
	at := tv.Type
	if types.IsInterface(at) {
		return // already an interface: no new box
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		// Single-word reference values: the interface data word holds
		// them directly, no box. (Slices are three words and do box.)
		return
	}
	if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	h.pass.Reportf(arg.Pos(), "alloc-ok",
		"concrete %s converted to %s in hot path %s: boxing allocates when it escapes",
		types.TypeString(at, types.RelativeTo(h.pass.Pkg)),
		types.TypeString(target, types.RelativeTo(h.pass.Pkg)), fnName)
}
