package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of harplint's SSA-lite dataflow
// engine: a per-function control-flow graph at statement granularity.
// errflow's use-before-loss analysis walks these blocks instead of the raw
// AST, which is what lets it make per-path "must" judgments — every finding
// is a certainty on some concrete execution path, not a syntactic maybe.
//
// The graph is deliberately lighter than full SSA: statements are not
// decomposed into instructions and variables are not renamed. Blocks carry
// the branch condition they end on (Cond, with the true edge first), so a
// rule that needs branch-condition tracking — errflow treating `if err !=
// nil` as a consuming use — reads it straight off the block.

// Block is one basic block: a maximal straight-line statement sequence.
type Block struct {
	Index int
	// Stmts are the statements of the block in execution order. Compound
	// statements (if/for/switch) never appear here — only their simple
	// parts (init statements, the range header) do; their bodies become
	// separate blocks.
	Stmts []ast.Stmt
	// Cond is the branch condition evaluated after Stmts when the block
	// ends in a two-way branch: Succs[0] is the true edge, Succs[1] the
	// false edge. Nil for unconditional blocks and multi-way branches.
	Cond  ast.Expr
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function or closure body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the synthetic sink: return statements, panics and falling
	// off the end all edge here. Deferred calls conceptually run on the
	// Exit edge.
	Exit *Block
	// Defers are the defer statements of the body in source order. They
	// also appear in their block's Stmts (so expression uses are visible
	// at the defer site); rules that model exit-time execution read them
	// from here.
	Defers []*ast.DeferStmt
}

// BuildCFG constructs the control-flow graph of a function body. Function
// literals inside the body are NOT descended into — a closure is its own
// execution context with its own CFG.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	b.edge(b.cur, b.cfg.Exit)
	b.cfg.wirePreds()
	return b.cfg
}

func (g *CFG) wirePreds() {
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
}

// loopFrame tracks the jump targets of one enclosing loop (or switch, for
// break).
type loopFrame struct {
	label   string
	breakTo *Block
	contTo  *Block // nil for switch/select frames
	isLoop  bool
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	frames []loopFrame
	labels map[string]*Block // goto targets
	// pendingLabel is the label naming the next loop/switch statement.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// seal terminates the current block (after a return/break/panic) and
// starts a fresh, unreachable one so trailing dead code still parses into
// blocks without creating bogus edges.
func (b *cfgBuilder) seal() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// breakTarget resolves the destination of a break statement.
func (b *cfgBuilder) breakTarget(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if label == "" || f.label == label {
			return f.breakTo
		}
	}
	return b.cfg.Exit // malformed code; stay safe
}

// contTarget resolves the destination of a continue statement.
func (b *cfgBuilder) contTarget(label string) *Block {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if f.isLoop && (label == "" || f.label == label) {
			return f.contTo
		}
	}
	return b.cfg.Exit
}

// gotoTarget returns (creating on demand) the block a goto lands on.
func (b *cfgBuilder) gotoTarget(label string) *Block {
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	if blk, ok := b.labels[label]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[label] = blk
	return blk
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		// Jump here: close the current block into the label block so both
		// fallthrough control and gotos land on the same block.
		lb := b.gotoTarget(s.Label.Name)
		b.edge(b.cur, lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.edge(b.cur, b.cfg.Exit)
		b.seal()
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			b.edge(b.cur, b.breakTarget(label))
			b.seal()
		case token.CONTINUE:
			b.edge(b.cur, b.contTarget(label))
			b.seal()
		case token.GOTO:
			b.edge(b.cur, b.gotoTarget(label))
			b.seal()
		case token.FALLTHROUGH:
			// Handled by the switch builder (clause list order); nothing
			// to do here — the next clause edge is added there.
		}
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.cur.Stmts = append(b.cur.Stmts, s)
	case *ast.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.seal()
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.cur
		head.Cond = s.Cond
		then := b.newBlock()
		after := b.newBlock()
		b.edge(head, then) // true edge first
		b.cur = then
		b.stmts(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(head, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(head, after)
		}
		b.cur = after
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Cond = s.Cond
			b.edge(head, body)
			b.edge(head, after)
		} else {
			// `for { ... }`: after is reachable only through break.
			b.edge(head, body)
		}
		b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: after, contTo: post, isLoop: true})
		b.pendingLabel = ""
		b.cur = body
		b.stmts(s.Body.List)
		if s.Post != nil {
			b.edge(b.cur, post)
			b.cur = post
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		// The range header (its X expression and key/value assignment)
		// lives in the head block so its uses and defs are visible.
		head.Stmts = append(head.Stmts, s)
		b.edge(b.cur, head)
		b.edge(head, body)
		b.edge(head, after)
		b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: after, contTo: head, isLoop: true})
		b.pendingLabel = ""
		b.cur = body
		b.stmts(s.Body.List)
		b.edge(b.cur, head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.multiway(s.Tag, clauseList(s.Body), true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The assign statement (`v := x.(type)`) carries the switched
		// expression; keep it visible in the head block.
		if s.Assign != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Assign)
		}
		b.multiway(nil, clauseList(s.Body), true)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.GoStmt, *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
	default:
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

// clause is one case of a switch or select.
type clause struct {
	body []ast.Stmt
	dflt bool
}

func clauseList(body *ast.BlockStmt) []clause {
	var out []clause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			out = append(out, clause{body: cc.Body, dflt: cc.List == nil})
		}
	}
	return out
}

// multiway builds switch-shaped control flow: a head block evaluating tag,
// one block per clause, and a join. Without a default clause the head also
// edges straight to the join. Fallthrough edges run clause i → clause i+1.
func (b *cfgBuilder) multiway(tag ast.Expr, clauses []clause, breakable bool) {
	head := b.cur
	if tag != nil {
		head.Stmts = append(head.Stmts, &ast.ExprStmt{X: tag})
	}
	after := b.newBlock()
	if breakable {
		b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: after})
		b.pendingLabel = ""
	}
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if clauses[i].dflt {
			hasDefault = true
		}
	}
	for i, c := range clauses {
		b.cur = blocks[i]
		b.stmts(c.body)
		if endsInFallthrough(c.body) && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
			b.seal()
		} else {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	if breakable {
		b.frames = b.frames[:len(b.frames)-1]
	}
	b.cur = after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// selectStmt builds select control flow: one block per comm clause, with
// the comm statement (send or receive) leading its clause body. A select
// without a default blocks until some case fires, so the join is reachable
// only through the clauses.
func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: b.pendingLabel, breakTo: after})
	b.pendingLabel = ""
	for _, st := range s.Body.List {
		cc, ok := st.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after)
	}
	if len(s.Body.List) == 0 {
		// `select {}` blocks forever: no successor at all.
		b.edge(head, b.cfg.Exit)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// isPanicCall recognizes a statement-level call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// FuncBodies returns every function body root of a file — declarations and
// function literals — each of which gets its own CFG. The shared helper
// keeps all flow rules agreeing on what an "execution context" is.
func FuncBodies(f *ast.File) []*ast.BlockStmt {
	var roots []*ast.BlockStmt
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			roots = append(roots, fd.Body)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != nil {
			roots = append(roots, fl.Body)
		}
		return true
	})
	return roots
}
