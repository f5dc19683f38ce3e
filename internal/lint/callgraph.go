package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file gives harplint its interprocedural backbone: a module-wide
// call graph over the loaded packages, with per-call liveness under the
// analyzed build configuration (calls inside `if invariant.Enabled { ... }`
// branches are dead in the default config and must not propagate
// must-not-allocate obligations or join and error-propagation summaries).

// FuncInfo is one declared function or method with a parsed body.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the statically resolved call sites in the body, in source
	// order. Calls inside function literals are NOT attributed to the
	// enclosing declaration — a closure runs under an unknown schedule, and
	// the analyses that care (hotalloc) flag the closure itself.
	Calls []CallSite
}

// CallSite is one resolved call inside a function body.
type CallSite struct {
	Callee *types.Func
	// Live reports whether the call is reachable under the analyzed build
	// configuration (false inside statically-dead branches).
	Live bool
}

// CallGraph indexes every function declaration of a package set and the
// calls between them.
type CallGraph struct {
	funcs map[*types.Func]*FuncInfo
}

// BuildCallGraph constructs the call graph of the given packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{funcs: make(map[*types.Func]*FuncInfo)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: p}
				inspectLive(p, fd.Body, true, func(n ast.Node, live bool) bool {
					switch n := n.(type) {
					case *ast.FuncLit:
						return false // closures are separate execution contexts
					case *ast.CallExpr:
						if callee := calleeOf(p, n); callee != nil {
							fi.Calls = append(fi.Calls, CallSite{Callee: callee, Live: live})
						}
					}
					return true
				})
				g.funcs[obj] = fi
			}
		}
	}
	return g
}

// Lookup returns the FuncInfo of a function object, or nil when its body
// was not among the loaded packages.
func (g *CallGraph) Lookup(obj *types.Func) *FuncInfo { return g.funcs[obj] }

// Funcs returns every function in the graph, sorted by position for
// deterministic iteration.
func (g *CallGraph) Funcs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(g.funcs))
	for _, fi := range g.funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// calleeOf statically resolves the callee of a call expression to a
// function object (package function, method, or qualified function).
// Indirect calls through function values resolve to nil.
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// inspectLive walks an AST like ast.Inspect, but carries a liveness flag
// that turns false inside branches that are statically dead under the
// analyzed build configuration (if-conditions folding to a boolean
// constant, e.g. the build-tag-selected invariant.Enabled).
func inspectLive(p *Package, root ast.Node, live bool, f func(n ast.Node, live bool) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return f(n, live)
		}
		if !f(n, live) {
			return false
		}
		if ifs.Init != nil {
			inspectLive(p, ifs.Init, live, f)
		}
		inspectLive(p, ifs.Cond, live, f)
		bodyLive, elseLive := live, live
		if pkgConstBool(p, ifs.Cond, false) {
			bodyLive = false
		}
		if pkgConstBool(p, ifs.Cond, true) {
			elseLive = false
		}
		inspectLive(p, ifs.Body, bodyLive, f)
		if ifs.Else != nil {
			inspectLive(p, ifs.Else, elseLive, f)
		}
		return false
	})
}

// pkgConstBool reports whether cond is statically the given boolean under
// the analyzed build configuration. One level of && / || is folded so
// guards like `if invariant.Enabled && extra` are recognized.
func pkgConstBool(p *Package, cond ast.Expr, want bool) bool {
	cond = ast.Unparen(cond)
	if tv, ok := p.Info.Types[cond]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		return constant.BoolVal(tv.Value) == want
	}
	if be, ok := cond.(*ast.BinaryExpr); ok {
		switch {
		case be.Op == token.LAND && !want:
			return pkgConstBool(p, be.X, false) || pkgConstBool(p, be.Y, false)
		case be.Op == token.LOR && want:
			return pkgConstBool(p, be.X, true) || pkgConstBool(p, be.Y, true)
		}
	}
	return false
}

// funcLabel renders a human-readable name for a function object:
// pkg.Func or (pkg.Recv).Method, with the module prefix trimmed.
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return shortPkg(fn.Pkg().Path()) + "." + n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return shortPkg(fn.Pkg().Path()) + "." + name
	}
	return name
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
