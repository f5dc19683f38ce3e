package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotAllocAnalysis implements the hotalloc rule: the BuildHist and
// FindSplit kernels are the inner loops the paper's block-wise ⟨row, node,
// bin, feature⟩ decomposition exists to keep saturated, and a single heap
// allocation inside them (or anything they call) turns into GC pressure
// multiplied by rows × features × trees. The rule computes the set of
// functions reachable from a configurable list of kernel roots over the
// live call graph and flags every construct in that set that may allocate:
//
//   - slice and map composite literals;
//   - append (may grow the backing array);
//   - make and new;
//   - function literals (closure capture allocates);
//   - implicit interface conversions at call sites (boxing).
//
// The internal/invariant package is exempt, as is any branch statically
// guarded by invariant.Enabled: the harpdebug checking layer is allowed to
// allocate because it does not exist in release builds.
//
// The static rule is paired with testing.AllocsPerRun regression tests in
// the kernel packages; hotalloc catches the regression at lint time and
// names the construct, the tests catch anything the syntactic pass cannot
// see.
type hotAllocAnalysis struct {
	roots []HotRoot
	// reach maps every hot function to the label of the kernel root it is
	// reachable from (the root itself included).
	reach map[*types.Func]string
}

// HotRoot selects kernel root functions by package path suffix, receiver
// type name (empty matches plain functions and any receiver), and function
// name prefix.
type HotRoot struct {
	PkgSuffix  string
	Recv       string
	NamePrefix string
}

// DefaultHotRoots returns the module's kernel roots: the histogram
// accumulation, reduction, subtraction, zeroing and split-finding kernels,
// the core builder's per-block accumulate driver, and the scoring kernel.
func DefaultHotRoots() []HotRoot {
	return []HotRoot{
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "Accumulate"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "FindBestSplit"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "AddHist"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "AddRange"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "SubHist"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "SubListed"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "Trim"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "Cover"},
		{PkgSuffix: "internal/histogram", Recv: "Hist", NamePrefix: "Reset"},
		{PkgSuffix: "internal/core", Recv: "Builder", NamePrefix: "accumulate"},
		{PkgSuffix: "internal/serve", Recv: "Flat", NamePrefix: "PredictRangeInto"},
	}
}

// NewHotAllocAnalysis returns the hotalloc rule rooted at the given kernel
// selectors. Tests point this at fixture roots.
func NewHotAllocAnalysis(roots ...HotRoot) Analysis {
	return &hotAllocAnalysis{roots: roots}
}

func (*hotAllocAnalysis) Rules() []string { return []string{"hotalloc"} }

// exemptPkg reports whether allocations in the package are permitted (the
// build-tag-gated invariant layer).
func exemptPkg(pkg *types.Package) bool {
	return pkg != nil && strings.HasSuffix(pkg.Path(), "internal/invariant")
}

func (a *hotAllocAnalysis) matchesRoot(fi *FuncInfo) bool {
	for _, r := range a.roots {
		if fi.Obj.Pkg() == nil || !strings.HasSuffix(fi.Obj.Pkg().Path(), r.PkgSuffix) {
			continue
		}
		if !strings.HasPrefix(fi.Obj.Name(), r.NamePrefix) {
			continue
		}
		if r.Recv != "" {
			sig, _ := fi.Obj.Type().(*types.Signature)
			if sig == nil || sig.Recv() == nil {
				continue
			}
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok || n.Obj().Name() != r.Recv {
				continue
			}
		}
		return true
	}
	return false
}

// Prepare computes the hot set: BFS from the kernel roots over live call
// edges, stopping at the exempt invariant package.
func (a *hotAllocAnalysis) Prepare(pkgs []*Package) {
	a.reach = make(map[*types.Func]string)
	g := BuildCallGraph(pkgs)
	var queue []*FuncInfo
	for _, fi := range g.Funcs() {
		if a.matchesRoot(fi) {
			a.reach[fi.Obj] = funcLabel(fi.Obj)
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		label := a.reach[fi.Obj]
		for _, cs := range fi.Calls {
			if !cs.Live || exemptPkg(cs.Callee.Pkg()) {
				continue
			}
			if _, seen := a.reach[cs.Callee]; seen {
				continue
			}
			callee := g.Lookup(cs.Callee)
			if callee == nil {
				continue // body outside the module (stdlib); arg boxing is still checked at the call site
			}
			a.reach[cs.Callee] = label
			queue = append(queue, callee)
		}
	}
}

func (a *hotAllocAnalysis) Check(p *Package, report func(rule string, pos token.Pos, msg string)) {
	if exemptPkg(p.Types) {
		return
	}
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
			root, hot := a.reach[obj]
			if !hot {
				continue
			}
			via := ""
			if root != funcLabel(obj) {
				via = fmt.Sprintf(" (reachable from kernel root %s)", root)
			}
			a.checkBody(p, fd.Body, via, report)
		}
	}
}

// checkBody flags allocating constructs in one hot function body,
// skipping statically dead branches and invariant.Enabled-guarded debug
// blocks (allowed to allocate in either build configuration).
func (a *hotAllocAnalysis) checkBody(p *Package, body *ast.BlockStmt, via string, report func(rule string, pos token.Pos, msg string)) {
	hot := func(pos token.Pos, what string) {
		report("hotalloc", pos, what+" in a must-not-allocate kernel"+via)
	}
	inspectLive(p, body, true, func(n ast.Node, live bool) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && invariantGuarded(p, ifs.Cond) {
			// Debug-layer block: walk the else branch only.
			if ifs.Else != nil {
				a.checkBody(p, &ast.BlockStmt{List: []ast.Stmt{ifs.Else}}, via, report)
			}
			return false
		}
		if !live {
			return true
		}
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := typeOf(p, n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				hot(n.Pos(), "slice literal allocates")
			case *types.Map:
				hot(n.Pos(), "map literal allocates")
			}
		case *ast.FuncLit:
			hot(n.Pos(), "function literal allocates a closure")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					hot(n.Pos(), "address of composite literal escapes to the heap")
				}
			}
		case *ast.CallExpr:
			a.checkCall(p, n, hot)
		}
		return true
	})
}

// checkCall flags allocating builtins and implicit interface conversions
// at a call site inside a hot function.
func (a *hotAllocAnalysis) checkCall(p *Package, call *ast.CallExpr, hot func(pos token.Pos, what string)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				hot(call.Pos(), "append may grow the backing array")
			case "make":
				hot(call.Pos(), "make allocates")
			case "new":
				hot(call.Pos(), "new allocates")
			}
			return
		}
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
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
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, iface := pt.Underlying().(*types.Interface); !iface {
			continue
		}
		at := typeOf(p, arg)
		if at == nil {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			// Already an interface, or a pointer-shaped value: no boxing.
		default:
			hot(arg.Pos(), fmt.Sprintf("implicit conversion of %s to %s boxes the value", at, pt))
		}
	}
}

// invariantGuarded reports whether a condition references the build-tag
// constant invariant.Enabled, marking a debug-layer block that is allowed
// to allocate regardless of the analyzed configuration.
func invariantGuarded(p *Package, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name != "Enabled" {
			return true
		}
		if c, ok := p.Info.Uses[id].(*types.Const); ok && exemptPkg(c.Pkg()) {
			found = true
		}
		return true
	})
	return found
}
