package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockAnalysis implements the spinscope and lockbalance rules with a
// single abstract-interpretation walk that tracks which mutexes are held
// at each program point.
//
// spinscope enforces the paper's spin-lock discipline: a sched.SpinMutex
// burns a core while contended, so its critical sections must be a few
// straight-line instructions. While one is held we forbid function calls
// (except the mutex's own methods and sync/atomic), heap allocations
// (make, new, append, slice/map literals, closures), channel operations,
// goroutine spawns, panics and returns. `defer mu.Unlock()` on a spin
// mutex keeps it held to the end of the function, and the rest of the
// body is checked accordingly.
//
// lockbalance applies to spin and sync mutexes alike: every Lock must be
// released on every exit path (directly or via defer), a held mutex must
// not be re-locked, branches must agree on lock state, and loop bodies
// must not change it across iterations.
type lockAnalysis struct{}

func (*lockAnalysis) Rules() []string { return []string{"spinscope", "lockbalance"} }

const (
	mutexNone = iota
	mutexSpin
	mutexSync
)

// mutexKindOf classifies a type as spin mutex, sync mutex, or neither.
func mutexKindOf(t types.Type) int {
	if t == nil {
		return mutexNone
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return mutexNone
	}
	pkg, name := n.Obj().Pkg().Path(), n.Obj().Name()
	switch {
	case name == "SpinMutex" && strings.HasSuffix(pkg, "internal/sched"):
		return mutexSpin
	case pkg == "sync" && (name == "Mutex" || name == "RWMutex"):
		return mutexSync
	}
	return mutexNone
}

// heldInfo records one held mutex: its kind, acquisition site, and
// whether a deferred unlock already guarantees release.
type heldInfo struct {
	kind     int
	pos      token.Pos
	deferred bool
	rlocked  bool
}

type heldMap map[string]heldInfo

func (h heldMap) clone() heldMap {
	c := make(heldMap, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h heldMap) sameKeys(o heldMap) bool {
	if len(h) != len(o) {
		return false
	}
	for k := range h {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// spinHeld returns the name of a held spin mutex without a pending
// deferred release... including deferred ones: a deferred spin unlock
// still means the code below runs inside the critical section.
func (h heldMap) spinHeld() (string, bool) {
	keys := make([]string, 0, len(h))
	for k, v := range h {
		if v.kind == mutexSpin {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	return keys[0], true
}

func (a *lockAnalysis) Check(p *Package, report func(rule string, pos token.Pos, msg string)) {
	for _, f := range p.Files {
		var roots []*ast.BlockStmt
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				roots = append(roots, fd.Body)
			}
		}
		// Function literals are analyzed as independent roots: they run
		// later, under unknown lock state.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
				roots = append(roots, fl.Body)
			}
			return true
		})
		for _, body := range roots {
			w := &lockWalker{p: p, report: report}
			held, term := w.stmts(body.List, heldMap{})
			if !term {
				for key, info := range held {
					if !info.deferred {
						report("lockbalance", info.pos,
							fmt.Sprintf("%s is still locked when the function returns", key))
					}
				}
			}
		}
	}
}

type lockWalker struct {
	p      *Package
	report func(rule string, pos token.Pos, msg string)
}

// stmts walks a statement list, threading lock state. The bool result
// reports whether the list terminates (return/branch/panic) rather than
// falling through.
func (w *lockWalker) stmts(list []ast.Stmt, held heldMap) (heldMap, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held heldMap) (heldMap, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if kind, key, method, ok := w.lockOp(call); ok {
				return w.applyLockOp(held, kind, key, method, call.Pos()), false
			}
		}
		w.checkExpr(s.X, held)
	case *ast.DeferStmt:
		if _, key, method, ok := w.lockOp(s.Call); ok && isUnlock(method) {
			if info, exists := held[key]; exists {
				info.deferred = true
				held[key] = info
			}
			return held, false
		}
		if key, spin := held.spinHeld(); spin {
			w.report("spinscope", s.Pos(),
				fmt.Sprintf("defers a call while SpinMutex %s is held", key))
		}
		for _, arg := range s.Call.Args {
			w.checkExpr(arg, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, held)
		}
		for key, info := range held {
			if info.deferred {
				continue
			}
			if info.kind == mutexSpin {
				w.report("spinscope", s.Pos(),
					fmt.Sprintf("returns while SpinMutex %s is held", key))
			}
			w.report("lockbalance", s.Pos(),
				fmt.Sprintf("returns with %s locked and no deferred unlock", key))
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough: the path leaves this list.
		return held, true
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.checkExpr(s.X, held)
	case *ast.SendStmt:
		if key, spin := held.spinHeld(); spin {
			w.report("spinscope", s.Pos(),
				fmt.Sprintf("channel send while SpinMutex %s is held", key))
		}
		w.checkExpr(s.Chan, held)
		w.checkExpr(s.Value, held)
	case *ast.GoStmt:
		if key, spin := held.spinHeld(); spin {
			w.report("spinscope", s.Pos(),
				fmt.Sprintf("spawns a goroutine while SpinMutex %s is held", key))
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		// Branches dead under this build configuration (e.g. guarded by
		// the harpdebug-gated invariant.Enabled constant) are skipped:
		// their code never runs in the build being analyzed.
		if w.constBool(s.Cond, false) {
			if s.Else != nil {
				return w.stmt(s.Else, held)
			}
			return held, false
		}
		w.checkExpr(s.Cond, held)
		if w.constBool(s.Cond, true) {
			return w.stmts(s.Body.List, held)
		}
		bodyHeld, bodyTerm := w.stmts(s.Body.List, held.clone())
		elseHeld, elseTerm := held.clone(), false
		if s.Else != nil {
			elseHeld, elseTerm = w.stmt(s.Else, held.clone())
		}
		return w.merge(s.Pos(), held,
			[]heldMap{bodyHeld, elseHeld}, []bool{bodyTerm, elseTerm}, true)
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		bodyHeld, bodyTerm := w.stmts(s.Body.List, held.clone())
		if !bodyTerm && !bodyHeld.sameKeys(held) {
			w.report("lockbalance", s.Pos(),
				"lock state changes across loop iterations")
		}
		return held, false
	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		bodyHeld, bodyTerm := w.stmts(s.Body.List, held.clone())
		if !bodyTerm && !bodyHeld.sameKeys(held) {
			w.report("lockbalance", s.Pos(),
				"lock state changes across loop iterations")
		}
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, held)
		}
		return w.walkCases(s.Pos(), s.Body, held, false)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		return w.walkCases(s.Pos(), s.Body, held, false)
	case *ast.SelectStmt:
		if key, spin := held.spinHeld(); spin {
			w.report("spinscope", s.Pos(),
				fmt.Sprintf("select (channel operation) while SpinMutex %s is held", key))
		}
		return w.walkCases(s.Pos(), s.Body, held, true)
	}
	return held, false
}

// walkCases merges the bodies of switch/select clauses. exhaustive marks
// constructs where exactly one clause always runs (select, or a switch
// with a default clause).
func (w *lockWalker) walkCases(pos token.Pos, body *ast.BlockStmt, held heldMap, exhaustive bool) (heldMap, bool) {
	var outs []heldMap
	var terms []bool
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.checkExpr(e, held)
			}
			list = c.Body
			if c.List == nil {
				exhaustive = true // default clause
			}
		case *ast.CommClause:
			list = c.Body
		}
		h, t := w.stmts(list, held.clone())
		outs = append(outs, h)
		terms = append(terms, t)
	}
	if len(outs) == 0 {
		return held, false
	}
	return w.merge(pos, held, outs, terms, exhaustive)
}

// merge reconciles lock state across branch exits. Non-terminating
// branches must agree on which mutexes are held; when the construct is
// not exhaustive the entry state joins the comparison (the construct may
// not run at all).
func (w *lockWalker) merge(pos token.Pos, entry heldMap, outs []heldMap, terms []bool, exhaustive bool) (heldMap, bool) {
	var live []heldMap
	for i, h := range outs {
		if !terms[i] {
			live = append(live, h)
		}
	}
	if !exhaustive {
		live = append(live, entry)
	}
	if len(live) == 0 {
		return entry, true
	}
	first := live[0]
	for _, h := range live[1:] {
		if !h.sameKeys(first) {
			w.report("lockbalance", pos,
				"lock state differs between branches")
			break
		}
	}
	return first, false
}

// applyLockOp updates held for a Lock/Unlock-family call.
func (w *lockWalker) applyLockOp(held heldMap, kind int, key, method string, pos token.Pos) heldMap {
	switch method {
	case "Lock", "RLock":
		if info, exists := held[key]; exists && !(method == "RLock" && info.rlocked) {
			w.report("lockbalance", pos,
				fmt.Sprintf("%s is locked while already held (self-deadlock)", key))
			return held
		}
		held[key] = heldInfo{kind: kind, pos: pos, rlocked: method == "RLock"}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return held
}

func isUnlock(method string) bool { return method == "Unlock" || method == "RUnlock" }

// lockOp recognizes a Lock/Unlock/RLock/RUnlock/TryLock call on a spin or
// sync mutex and returns a canonical key for the receiver expression.
func (w *lockWalker) lockOp(call *ast.CallExpr) (kind int, key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return 0, "", "", false
	}
	method = sel.Sel.Name
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return 0, "", "", false
	}
	kind = mutexKindOf(w.typeOf(sel.X))
	if kind == mutexNone {
		return 0, "", "", false
	}
	key = exprKey(sel.X)
	if key == "" {
		return 0, "", "", false
	}
	return kind, key, method, true
}

func (w *lockWalker) typeOf(e ast.Expr) types.Type {
	if w.p.Info == nil {
		return nil
	}
	if tv, ok := w.p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// constBool reports whether cond is statically the given boolean under
// this build configuration (see pkgConstBool).
func (w *lockWalker) constBool(cond ast.Expr, want bool) bool {
	return pkgConstBool(w.p, cond, want)
}

// exprKey canonicalizes a mutex receiver expression (chains of idents and
// field selections only) into a tracking key.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(e.X)
		}
	}
	return ""
}

// checkExpr reports spinscope violations inside an expression evaluated
// while a spin mutex is held. It does not descend into function literals
// (they execute later, as separate roots).
func (w *lockWalker) checkExpr(e ast.Expr, held heldMap) {
	key, spin := held.spinHeld()
	if !spin {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.report("spinscope", n.Pos(),
				fmt.Sprintf("allocates a closure while SpinMutex %s is held", key))
			return false
		case *ast.CallExpr:
			return w.checkCall(n, key)
		case *ast.CompositeLit:
			if w.heapLit(n) {
				w.report("spinscope", n.Pos(),
					fmt.Sprintf("allocates a slice/map literal while SpinMutex %s is held", key))
			}
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				w.report("spinscope", n.Pos(),
					fmt.Sprintf("channel receive while SpinMutex %s is held", key))
			case token.AND:
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					w.report("spinscope", n.Pos(),
						fmt.Sprintf("heap-allocates a composite literal while SpinMutex %s is held", key))
					return false
				}
			}
		}
		return true
	})
}

// heapLit reports whether a composite literal allocates on the heap
// (slices and maps do; struct and array values can live on the stack).
func (w *lockWalker) heapLit(lit *ast.CompositeLit) bool {
	t := w.typeOf(lit)
	if t == nil {
		return true // unresolved: assume the worst
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// checkCall reports a spinscope violation for a call made while a spin
// mutex is held, unless the callee is on the allowlist: the mutex's own
// methods, sync/atomic, and cheap non-allocating builtins.
func (w *lockWalker) checkCall(call *ast.CallExpr, key string) bool {
	fun := ast.Unparen(call.Fun)
	// Type conversions are free.
	if tv, ok := w.p.Info.Types[fun]; ok && tv.IsType() {
		return true
	}
	if id, ok := fun.(*ast.Ident); ok {
		if obj := w.objectOf(id); obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				switch id.Name {
				case "len", "cap", "real", "imag", "copy", "delete", "min", "max":
					return true
				case "make", "new", "append":
					w.report("spinscope", call.Pos(),
						fmt.Sprintf("%s allocates while SpinMutex %s is held", id.Name, key))
					return true
				case "panic":
					w.report("spinscope", call.Pos(),
						fmt.Sprintf("calls panic while SpinMutex %s is held", key))
					return true
				case "close":
					w.report("spinscope", call.Pos(),
						fmt.Sprintf("closes a channel while SpinMutex %s is held", key))
					return true
				}
			}
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		// The held mutex's own methods (Unlock et al.) are the critical
		// section's bookkeeping, not violations.
		if mutexKindOf(w.typeOf(sel.X)) != mutexNone {
			return true
		}
		if obj := w.objectOf(sel.Sel); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "sync/atomic" {
			return true
		}
		// Methods on sync/atomic types (atomic.Int64.Add, ...).
		if t := w.typeOf(sel.X); t != nil {
			tt := t
			if p, isPtr := tt.Underlying().(*types.Pointer); isPtr {
				tt = p.Elem()
			}
			if n, isNamed := tt.(*types.Named); isNamed && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Path() == "sync/atomic" {
				return true
			}
		}
	}
	w.report("spinscope", call.Pos(),
		fmt.Sprintf("calls %s while SpinMutex %s is held", renderExpr(fun), key))
	return true
}

func (w *lockWalker) objectOf(id *ast.Ident) types.Object {
	if w.p.Info == nil {
		return nil
	}
	if obj := w.p.Info.Uses[id]; obj != nil {
		return obj
	}
	return w.p.Info.Defs[id]
}

// renderExpr prints a compact source-like form of a callee expression.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[...]"
	case *ast.CallExpr:
		return renderExpr(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return renderExpr(e.X)
	}
	return "function value"
}
