package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// errFlowAnalysis implements the errflow rule: errors originating in the
// durable-persistence layer — safeio atomic writes and everything built on
// them (checkpoints, model/cache persistence, flight-recorder dumps) —
// must never be discarded or shadowed, and must be wrapped with %w when
// propagated. The fault-tolerance guarantees of the checkpoint/resume
// machinery (bit-identical resumed models) are only as strong as the weakest error
// path: a dropped safeio error turns a detected corrupt checkpoint into a
// silent one.
//
// The pass runs in two stages:
//
//  1. Prepare computes the set of tracked functions: everything in
//     internal/safeio with an error result is an origin; a module function
//     becomes a propagator when it has an error result and some return
//     statement visibly forwards a tracked error (returns a tracked call
//     directly, returns a variable assigned from one, or returns a
//     fmt.Errorf wrapping such a variable). The fixpoint follows the
//     module call graph, so checkpoint.Save → safeio.WriteFile →
//     boost.saveCheckpoint chains are all tracked.
//
//  2. Check inspects every call site of a tracked function using the CFG
//     first-event dataflow: the error result must be consumed on every
//     path before being overwritten or falling out of scope. Blank
//     assignment, statement-level drops, and shadowing redefinitions are
//     must-findings — the loss is on a concrete path, not a maybe.
//     Separately, a fmt.Errorf whose arguments include a tracked error
//     but whose constant format string has no %w breaks errors.Is/As
//     chains (the corrupt-checkpoint detector matches on
//     safeio.ErrCorrupt) and is reported.
type errFlowAnalysis struct {
	// tracked maps a function to true when its error result originates in
	// (or visibly forwards from) the persistence layer.
	tracked map[*types.Func]bool
}

func (*errFlowAnalysis) Rules() []string { return []string{"errflow"} }

// originPkg matches the package whose errors seed the analysis.
func originPkg(path string) bool {
	return strings.HasSuffix(path, "internal/safeio") || strings.HasSuffix(path, "/safeio")
}

// isTracked reports whether calls to fn produce a persistence-layer
// error: origin functions match by signature (so they are recognized even
// when their bodies are outside the analyzed package set, as in fixture
// loads), propagators via the Prepare fixpoint.
func (a *errFlowAnalysis) isTracked(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if a.tracked[fn] {
		return true
	}
	return fn.Pkg() != nil && originPkg(fn.Pkg().Path()) && errResultIndex(fn) >= 0
}

// errResultIndex returns the index of the (sole) error result of fn's
// signature, or -1 when it has none.
func errResultIndex(fn *types.Func) int {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return i
		}
	}
	return -1
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// Prepare seeds the tracked set with safeio's error-returning functions
// and runs the propagator fixpoint over the module.
func (a *errFlowAnalysis) Prepare(pkgs []*Package) {
	a.tracked = make(map[*types.Func]bool)
	g := BuildCallGraph(pkgs)
	funcs := g.Funcs()
	for _, fi := range funcs {
		if originPkg(fi.Pkg.Path) && errResultIndex(fi.Obj) >= 0 {
			a.tracked[fi.Obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if a.tracked[fi.Obj] || errResultIndex(fi.Obj) < 0 {
				continue
			}
			if a.propagates(fi) {
				a.tracked[fi.Obj] = true
				changed = true
			}
		}
	}
}

// propagates reports whether fi visibly returns a tracked error: a return
// of a tracked call, of a variable ever assigned from a tracked call, or
// of a fmt.Errorf wrapping such a variable.
func (a *errFlowAnalysis) propagates(fi *FuncInfo) bool {
	carriers := a.carrierVars(fi.Pkg, fi.Decl.Body)
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if a.exprCarries(fi.Pkg, r, carriers) {
				found = true
			}
		}
		return true
	})
	return found
}

// carrierVars collects the local variables assigned (at any point in the
// body) from a tracked call's error result.
func (a *errFlowAnalysis) carrierVars(p *Package, body ast.Node) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, v := range a.errorTargets(p, as) {
			out[v] = true
		}
		return true
	})
	return out
}

// exprCarries reports whether a returned expression visibly carries a
// tracked error: the tracked call itself, a carrier variable, or a
// fmt.Errorf/errors.Join whose arguments include either.
func (a *errFlowAnalysis) exprCarries(p *Package, e ast.Expr, carriers map[*types.Var]bool) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		v, _ := p.Info.Uses[id].(*types.Var)
		return v != nil && carriers[v]
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if callee := calleeOf(p, call); callee != nil {
		if a.isTracked(callee) {
			return true
		}
		if isErrWrapper(callee) {
			for _, arg := range call.Args {
				if a.exprCarries(p, arg, carriers) {
					return true
				}
			}
		}
	}
	return false
}

// isErrWrapper matches the stdlib error-combinators whose results carry
// their argument errors: fmt.Errorf and errors.Join.
func isErrWrapper(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() + "." + fn.Name() {
	case "fmt.Errorf", "errors.Join":
		return true
	}
	return false
}

// errorTargets resolves, for one assignment, the local variables that
// receive the error result of a tracked call on its right-hand side.
// The blank-target and dropped-call findings are NOT produced here — this
// is the pure "who holds a tracked error now" query.
func (a *errFlowAnalysis) errorTargets(p *Package, as *ast.AssignStmt) []*types.Var {
	call := singleCallRHS(as)
	if call == nil {
		return nil
	}
	callee := calleeOf(p, call)
	if callee == nil || !a.isTracked(callee) {
		return nil
	}
	idx := errResultIndex(callee)
	if idx < 0 {
		return nil
	}
	var out []*types.Var
	if len(as.Lhs) == 1 && idx == 0 {
		if v := assignedVar(p.Info, as.Lhs[0]); v != nil {
			out = append(out, v)
		}
	} else if idx < len(as.Lhs) {
		if v := assignedVar(p.Info, as.Lhs[idx]); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// singleCallRHS unwraps `lhs... := f(...)` to the call, nil otherwise.
func singleCallRHS(as *ast.AssignStmt) *ast.CallExpr {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, _ := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	return call
}

func (a *errFlowAnalysis) Check(p *Package, report func(rule string, pos token.Pos, msg string)) {
	for _, f := range p.Files {
		for _, body := range FuncBodies(f) {
			a.checkBody(p, body, report)
		}
	}
}

func (a *errFlowAnalysis) checkBody(p *Package, body *ast.BlockStmt, report func(rule string, pos token.Pos, msg string)) {
	du := NewDefUse(body, p.Info)
	carriers := a.carrierVars(p, body)
	du.FindDefs(func(b *Block, i int, s ast.Stmt) {
		switch s := s.(type) {
		case *ast.ExprStmt:
			// A tracked call at statement level throws its error away.
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if callee := calleeOf(p, call); a.isTracked(callee) {
					report("errflow", s.Pos(), fmt.Sprintf(
						"error from %s is dropped (call result unused); persistence-layer errors must be handled or propagated with %%w", funcLabel(callee)))
				}
			}
		case *ast.GoStmt:
			if callee := calleeOf(p, s.Call); a.isTracked(callee) {
				report("errflow", s.Pos(), fmt.Sprintf(
					"error from %s is unobservable in a bare go statement", funcLabel(callee)))
			}
		case *ast.AssignStmt:
			a.checkAssign(p, du, b, i, s, report)
		}
		// %w discipline: fmt.Errorf over a tracked error without %w.
		a.checkWrapping(p, s, carriers, report)
	})
}

// checkAssign handles `... := trackedCall(...)`: blank error targets are
// immediate findings, named targets are handed to the first-event
// dataflow — every path must consume the error before it is overwritten
// or scope ends.
func (a *errFlowAnalysis) checkAssign(p *Package, du *DefUse, b *Block, i int, as *ast.AssignStmt, report func(rule string, pos token.Pos, msg string)) {
	call := singleCallRHS(as)
	if call == nil {
		return
	}
	callee := calleeOf(p, call)
	if callee == nil || !a.isTracked(callee) {
		return
	}
	idx := errResultIndex(callee)
	if idx < 0 {
		return
	}
	var target ast.Expr
	if len(as.Lhs) == 1 && idx == 0 {
		target = as.Lhs[0]
	} else if idx < len(as.Lhs) {
		target = as.Lhs[idx]
	} else {
		return
	}
	if id, ok := ast.Unparen(target).(*ast.Ident); ok && id.Name == "_" {
		report("errflow", as.Pos(), fmt.Sprintf(
			"error from %s is discarded into _; persistence-layer errors must be handled or propagated with %%w", funcLabel(callee)))
		return
	}
	v := assignedVar(p.Info, target)
	if v == nil || !du.Local(v) {
		return
	}
	if ok, loss := du.UsedBeforeLoss(v, b, i+1); !ok {
		switch loss.Kind {
		case "overwritten":
			report("errflow", loss.Pos, fmt.Sprintf(
				"error from %s (line %d) is shadowed by this assignment before any path reads it", funcLabel(callee), p.Fset.Position(as.Pos()).Line))
		default:
			report("errflow", as.Pos(), fmt.Sprintf(
				"error from %s is never read on some path to function exit", funcLabel(callee)))
		}
	}
}

// checkWrapping flags fmt.Errorf calls that absorb a tracked error with a
// verb other than %w: the wrapped error becomes invisible to errors.Is,
// and the corrupt-checkpoint detection that matches safeio.ErrCorrupt
// silently stops firing.
func (a *errFlowAnalysis) checkWrapping(p *Package, s ast.Stmt, carriers map[*types.Var]bool, report func(rule string, pos token.Pos, msg string)) {
	// A RangeStmt appears in its head block whole; its body statements are
	// separate CFG statements — inspect only the header expression here.
	var root ast.Node = s
	if r, ok := s.(*ast.RangeStmt); ok {
		root = r.X
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies are walked as their own CFGs
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(p, call)
		if callee == nil || callee.Pkg() == nil ||
			callee.Pkg().Path() != "fmt" || callee.Name() != "Errorf" || len(call.Args) < 2 {
			return true
		}
		carries := false
		for _, arg := range call.Args[1:] {
			if a.exprCarries(p, arg, carriers) {
				carries = true
			}
		}
		if !carries {
			return true
		}
		if tv, ok := p.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			if !strings.Contains(constant.StringVal(tv.Value), "%w") {
				report("errflow", call.Pos(),
					"persistence-layer error wrapped without %w: errors.Is/As (e.g. the safeio.ErrCorrupt check) cannot see through this")
			}
		}
		return true
	})
}

var _ ModuleAnalysis = (*errFlowAnalysis)(nil)
