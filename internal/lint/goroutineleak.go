package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// goroutineLeakAnalysis implements the goroutineleak rule: every `go`
// statement must carry a provable join path. A goroutine nobody can wait
// for never shows up in a stack trace until it has already eaten a core —
// and in this codebase a leaked worker silently erodes the effective
// parallelism the perf ledger reports, which is the paper's headline
// number. Acceptable evidence of a join path, anywhere in the spawned
// body or transitively through module-local callees:
//
//   - a sync.WaitGroup Done (the spawner Waits);
//   - closing a channel (the spawner receives the close — the booster's
//     watcher-join idiom: `defer close(watcherExited)`);
//   - sending on a channel (the spawner receives the result);
//   - receiving from a channel, ranging over one, or a select with comm
//     clauses (the goroutine parks on a channel the spawner controls and
//     terminates when it is closed — including the `<-ctx.Done()` context
//     bridge).
//
// The rule is deliberately demanding rather than must-buggy: absence of
// any such evidence is reported, because "probably returns quickly" is
// exactly the assumption leaked goroutines hide behind. A goroutine whose
// body is opaque (an external function with no loaded body) has no
// provable join and is reported.
type goroutineLeakAnalysis struct {
	graph *CallGraph
	// joins records, per module function, whether its body (transitively)
	// contains join evidence.
	joins map[*types.Func]bool
}

func (*goroutineLeakAnalysis) Rules() []string { return []string{"goroutineleak"} }

// Prepare computes the transitive join-evidence summary for every module
// function: direct evidence in the body, or a live call to a function
// already known to carry evidence.
func (a *goroutineLeakAnalysis) Prepare(pkgs []*Package) {
	a.graph = BuildCallGraph(pkgs)
	a.joins = make(map[*types.Func]bool)
	funcs := a.graph.Funcs()
	for _, fi := range funcs {
		if directJoinEvidence(fi.Pkg, fi.Decl.Body) {
			a.joins[fi.Obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			if a.joins[fi.Obj] {
				continue
			}
			for _, c := range fi.Calls {
				if c.Live && a.joins[c.Callee] {
					a.joins[fi.Obj] = true
					changed = true
					break
				}
			}
		}
	}
}

// directJoinEvidence scans one body (closures included — evidence inside
// a nested closure still ties the goroutine to a channel protocol) for
// any of the accepted join mechanisms.
func directJoinEvidence(p *Package, body ast.Node) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := typeOf(p, n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if b, ok := p.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" && isWaitGroup(typeOf(p, fun.X)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func (a *goroutineLeakAnalysis) Check(p *Package, report func(rule string, pos token.Pos, msg string)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if a.joined(p, g.Call) {
				return true
			}
			report("goroutineleak", g.Pos(),
				"go statement has no provable join path (no WaitGroup Done, channel close/send/receive, or context bridge in the spawned body or its callees); the spawner cannot wait for this goroutine")
			return true
		})
	}
}

// joined reports whether the spawned call provably participates in a join
// protocol: closure bodies are scanned directly, named callees through
// the transitive summary, and channel/WaitGroup arguments count as the
// spawner handing the goroutine its half of a protocol even when the
// callee body is not loaded (e.g. a stdlib worker taking a channel).
func (a *goroutineLeakAnalysis) joined(p *Package, call *ast.CallExpr) bool {
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return directJoinEvidence(p, fl.Body)
	}
	if callee := calleeOf(p, call); callee != nil && a.joins[callee] {
		return true
	}
	for _, arg := range call.Args {
		t := typeOf(p, arg)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Chan); ok {
			return true
		}
		if isWaitGroup(t) {
			return true
		}
	}
	return false
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

var _ ModuleAnalysis = (*goroutineLeakAnalysis)(nil)
