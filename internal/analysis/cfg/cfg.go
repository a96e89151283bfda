// Package cfg builds intraprocedural control-flow graphs from go/ast
// function bodies, sized for this repository's flow-sensitive analyzers
// (fenceorder, doomedread). The protocol invariants those analyzers check
// are happens-before properties — "the reader flag store precedes the
// first simulated-memory read on every path" — and statement order within
// one block cannot see orderings that differ across branches, loop
// back-edges, or early returns. A CFG can.
//
// Shape of the graph:
//
//   - Blocks hold statements and decomposed condition operands in
//     evaluation order. Branch conditions are decomposed through && and ||
//     (and parenthesization/negation), so an event inside a short-circuit
//     operand sits in its own block and is only "reached" on the paths
//     that actually evaluate it.
//   - for/range/switch/type-switch/select, labeled break/continue, goto
//     and fallthrough are lowered to explicit edges; return, panic and
//     calls matched by Options.NoReturn (e.g. tx.Abort, which unwinds the
//     attempt) edge to Exit and terminate their block.
//   - defer is modeled by routing every Exit edge through a synthetic
//     deferred block holding the deferred calls in reverse registration
//     order. The block carries Deferred=true: analyses must treat its
//     events as "may occur" (a defer registered on one branch does not run
//     on paths that skip the registration), which Walk surfaces through
//     its guarded flag.
//   - Function literals are separate functions: Walk never descends into a
//     FuncLit body, except for literals that are invoked at the point they
//     appear (immediately-invoked and deferred literals), whose bodies do
//     execute on the enclosing function's paths.
//
// Nodes unreachable after a terminator start a fresh block with no
// predecessors, so dataflow solvers naturally assign them the optimistic
// top element.
package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Block is one basic block: straight-line nodes plus out-edges.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, dense).
	Index int
	// Nodes holds statements and decomposed condition operands in
	// evaluation order. Sub-expression order within one node is the
	// traversal order of Walk.
	Nodes []ast.Node
	// Succs and Preds are the out- and in-edges.
	Succs []*Block
	Preds []*Block
	// Deferred marks the synthetic block holding deferred calls; its
	// nodes execute zero or one time each, so analyses must treat their
	// events as conditional.
	Deferred bool
}

// Graph is one function body's control-flow graph.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// Options configures graph construction.
type Options struct {
	// NoReturn reports calls that never return control to the caller
	// (beyond the builtin panic, which is always recognized): transaction
	// aborts, log.Fatal-style helpers. Such calls edge to Exit.
	NoReturn func(call *ast.CallExpr) bool
	// Info, when non-nil, lets the builder recognize the panic builtin
	// through the type-checker rather than by name.
	Info *types.Info
}

type builder struct {
	g    *Graph
	opts Options
	cur  *Block // nil while the current point is unreachable

	defers []*ast.DeferStmt
	labels map[string]*labelTarget
	loops  []loopTarget // innermost last
}

type labelTarget struct {
	block *Block // target of goto
	brk   *Block // break LABEL target (set when the labeled stmt is a loop/switch)
	cont  *Block // continue LABEL target
}

type loopTarget struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select (break only)
}

// New builds the CFG of body.
func New(body *ast.BlockStmt, opts Options) *Graph {
	b := &builder{g: &Graph{}, opts: opts, labels: make(map[string]*labelTarget)}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	b.routeDefers()
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// emit appends a node to the current block, starting an unreachable block
// if control cannot reach this point (dead code after return/panic).
func (b *builder) emit(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// terminate routes the current block to Exit and marks the point
// unreachable.
func (b *builder) terminate() {
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
		b.cur = nil
	}
}

// routeDefers inserts the synthetic deferred block in front of Exit.
func (b *builder) routeDefers() {
	if len(b.defers) == 0 {
		return
	}
	d := b.newBlock()
	d.Deferred = true
	for i := len(b.defers) - 1; i >= 0; i-- {
		d.Nodes = append(d.Nodes, b.defers[i].Call)
	}
	exit := b.g.Exit
	for _, blk := range b.g.Blocks {
		if blk == d {
			continue
		}
		for i, s := range blk.Succs {
			if s == exit {
				blk.Succs[i] = d
			}
		}
	}
	b.edge(d, exit)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ExprStmt:
		b.emit(s.X)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.noReturn(call) {
			b.terminate()
		}
	case *ast.ReturnStmt:
		b.emit(s)
		b.terminate()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.DeferStmt:
		// Argument evaluation happens here; the call itself runs in the
		// synthetic deferred block before Exit.
		b.emit(s)
		b.defers = append(b.defers, s)
	case *ast.GoStmt:
		// Arguments are evaluated here; the goroutine body is not part
		// of this function's control flow.
		b.emit(s)
	case *ast.EmptyStmt:
	default:
		// Assign, IncDec, Decl, Send: straight-line.
		b.emit(s)
	}
}

func (b *builder) noReturn(call *ast.CallExpr) bool {
	if b.opts.Info != nil {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if bi, ok := b.opts.Info.Uses[id].(*types.Builtin); ok && bi.Name() == "panic" {
				return true
			}
		}
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.opts.NoReturn != nil && b.opts.NoReturn(call)
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.emit(s)
	switch s.Tok {
	case token.BREAK:
		if t := b.branchTarget(s.Label, true); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := b.branchTarget(s.Label, false); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			b.edge(b.cur, b.labelBlock(s.Label.Name))
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by switchStmt through fallEdge; nothing to do here
		// (the builder links clause i to clause i+1's body).
	}
}

// branchTarget resolves break/continue, labeled or not.
func (b *builder) branchTarget(label *ast.Ident, brk bool) *Block {
	if label != nil {
		if lt := b.labels[label.Name]; lt != nil {
			if brk {
				return lt.brk
			}
			return lt.cont
		}
		return nil
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		t := b.loops[i]
		if brk {
			return t.brk
		}
		if t.cont != nil { // skip switch/select for continue
			return t.cont
		}
	}
	return nil
}

// labelBlock returns (creating on demand) the block a label names, for
// goto resolution in either direction.
func (b *builder) labelBlock(name string) *Block {
	lt := b.labels[name]
	if lt == nil {
		lt = &labelTarget{}
		b.labels[name] = lt
	}
	if lt.block == nil {
		lt.block = b.newBlock()
	}
	return lt.block
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	lb := b.labelBlock(s.Label.Name)
	if b.cur != nil {
		b.edge(b.cur, lb)
	}
	b.cur = lb
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

// cond lowers a branch condition, decomposing short-circuit operators so
// each operand lands in its own block with edges reflecting the paths
// that evaluate it. The current point becomes unreachable.
func (b *builder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(x.X, mid, f)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(x.X, t, mid)
			b.cur = mid
			b.cond(x.Y, t, f)
			return
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	}
	b.emit(e)
	b.edge(b.cur, t)
	b.edge(b.cur, f)
	b.cur = nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	then := b.newBlock()
	join := b.newBlock()
	elseB := join
	if s.Else != nil {
		elseB = b.newBlock()
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cond(s.Cond, then, elseB)
	b.cur = then
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, join)
	}
	if s.Else != nil {
		b.cur = elseB
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		cont = post
	}
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = head
	if s.Cond != nil {
		b.cond(s.Cond, body, after)
	} else {
		b.edge(b.cur, body)
		b.cur = nil
	}
	b.pushLoop(label, after, cont)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.popLoop(label)
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	// The RangeStmt node itself stands for the per-iteration step: Walk
	// visits only X/Key/Value, never the body (which has its own blocks).
	head.Nodes = append(head.Nodes, s)
	b.edge(head, body)
	b.edge(head, after) // zero iterations
	b.pushLoop(label, after, head)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.popLoop(label)
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	if s.Tag != nil {
		b.emit(s.Tag)
	}
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	after := b.newBlock()
	b.pushLoop(label, after, nil)
	b.caseClauses(head, after, s.Body)
	b.popLoop(label)
	b.cur = after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.emit(s.Init)
	}
	b.emit(s.Assign)
	head := b.cur
	after := b.newBlock()
	b.pushLoop(label, after, nil)
	b.caseClauses(head, after, s.Body)
	b.popLoop(label)
	b.cur = after
}

// caseClauses lowers switch/type-switch bodies: the head branches to every
// clause; a missing default adds a fall-past edge; fallthrough links a
// clause to the next clause's body.
func (b *builder) caseClauses(head, after *Block, body *ast.BlockStmt) {
	var clauses []*ast.CaseClause
	for _, s := range body.List {
		if cc, ok := s.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	hasDefault := false
	blocks := make([]*Block, len(clauses))
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			// Case expressions are evaluated in the head's context.
			head.Nodes = append(head.Nodes, e)
		}
		b.edge(head, blocks[i])
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			if fallsThrough(cc.Body) && i+1 < len(clauses) {
				b.edge(b.cur, blocks[i+1])
			} else {
				b.edge(b.cur, after)
			}
			b.cur = nil
		}
	}
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
	}
	after := b.newBlock()
	b.pushLoop(label, after, nil)
	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.edge(head, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.popLoop(label)
	if !any {
		// select {} blocks forever.
		b.cur = nil
		return
	}
	b.cur = after
}

func (b *builder) pushLoop(label string, brk, cont *Block) {
	b.loops = append(b.loops, loopTarget{label: label, brk: brk, cont: cont})
	if label != "" {
		lt := b.labels[label]
		if lt == nil {
			lt = &labelTarget{}
			b.labels[label] = lt
		}
		lt.brk, lt.cont = brk, cont
	}
}

func (b *builder) popLoop(label string) {
	b.loops = b.loops[:len(b.loops)-1]
	if label != "" {
		if lt := b.labels[label]; lt != nil {
			lt.brk, lt.cont = nil, nil
		}
	}
}
