package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// NewStatserver builds the route-discipline analyzer, generalizing PR 7's
// table-driven TestStatServerRouteErrorPaths into a structural check: in
// any package that declares a StatisticServer type, every route
// registered on an http.ServeMux must
//
//   - pass through a method-guard wrapper (the `get` helper serving 405 +
//     Allow on non-GET), and
//   - resolve to a handler that sets a Content-Type on some path — via
//     the writeJSON/jsonError helpers or an explicit Header().Set.
//
// Third-party handlers that manage their own discipline (net/http/pprof)
// are suppressed explicitly: //rstorm:route-ok <reason>.
func NewStatserver() *Analyzer {
	a := &Analyzer{
		Name: "statserver",
		Doc:  "require every StatisticServer route to guard non-GET methods and set Content-Type",
	}
	a.Run = func(pass *Pass) error {
		if pass.Pkg.Scope().Lookup("StatisticServer") == nil {
			return nil
		}
		s := &statserverPass{
			pass:     pass,
			wrappers: map[string]bool{"get": true},
			writers:  map[string]bool{"writeJSON": true, "jsonError": true},
			decls:    methodDecls(pass),
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					s.checkRegistration(call)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// methodDecls indexes the package's function declarations by their
// types.Func object, so a registered handler expression resolves to the
// body that must set a Content-Type.
func methodDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj := pass.Info.Defs[fn.Name]; obj != nil {
					decls[obj] = fn
				}
			}
		}
	}
	return decls
}

type statserverPass struct {
	pass     *Pass
	wrappers map[string]bool
	writers  map[string]bool
	decls    map[types.Object]*ast.FuncDecl
}

// checkRegistration inspects mux.HandleFunc(path, handler) calls.
func (s *statserverPass) checkRegistration(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "HandleFunc" || len(call.Args) != 2 {
		return
	}
	obj := s.pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net/http" {
		return
	}
	route := "?"
	if lit, ok := call.Args[0].(*ast.BasicLit); ok {
		if unq, err := strconv.Unquote(lit.Value); err == nil {
			route = unq
		}
	}
	handler := call.Args[1]
	wrapped, ok := handler.(*ast.CallExpr)
	if !ok || !s.isWrapper(wrapped.Fun) {
		s.pass.Reportf(handler.Pos(), "route-ok",
			"route %q registered without a method-guard wrapper: non-GET requests are not answered with 405", route)
		return
	}
	if len(wrapped.Args) != 1 {
		return
	}
	s.checkContentType(route, wrapped.Args[0])
}

func (s *statserverPass) isWrapper(fun ast.Expr) bool {
	switch fun := fun.(type) {
	case *ast.Ident:
		return s.wrappers[fun.Name]
	case *ast.SelectorExpr:
		return s.wrappers[fun.Sel.Name]
	}
	return false
}

// checkContentType resolves the wrapped handler to a declaration and
// requires its body (or, for a func literal, the literal itself) to set
// a Content-Type: directly via Header().Set("Content-Type", ...), or
// through one of the uniform response helpers.
func (s *statserverPass) checkContentType(route string, handler ast.Expr) {
	var body *ast.BlockStmt
	name := "handler"
	switch h := handler.(type) {
	case *ast.FuncLit:
		body = h.Body
	case *ast.Ident:
		if fn := s.decls[s.pass.Info.Uses[h]]; fn != nil {
			body, name = fn.Body, fn.Name.Name
		}
	case *ast.SelectorExpr:
		if fn := s.decls[s.pass.Info.Uses[h.Sel]]; fn != nil {
			body, name = fn.Body, fn.Name.Name
		}
	}
	if body == nil {
		return // cross-package handler: wrapper guarantee is all we can check
	}
	if !s.setsContentType(body) {
		s.pass.Reportf(handler.Pos(), "route-ok",
			"handler %s for route %q never sets a Content-Type", name, route)
	}
}

func (s *statserverPass) setsContentType(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if s.writers[fun.Name] {
				found = true
			}
		case *ast.SelectorExpr:
			if s.writers[fun.Sel.Name] {
				found = true
				break
			}
			// w.Header().Set("Content-Type", ...)
			if fun.Sel.Name == "Set" && len(call.Args) == 2 {
				if lit, ok := call.Args[0].(*ast.BasicLit); ok {
					if unq, err := strconv.Unquote(lit.Value); err == nil && unq == "Content-Type" {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
