package lint

import (
	"go/ast"
	"go/token"
)

// Block is one basic block of a control-flow graph: statements and
// controlling expressions that execute in sequence, with a single entry.
type Block struct {
	// Nodes are the statements and control expressions of the block, in
	// execution order. Conditions and loop headers appear as bare
	// expressions; whole statements appear as statements. Function-literal
	// bodies are opaque — they get their own CFG, not blocks here.
	Nodes []ast.Node
	// Succs are the possible successors.
	Succs []*Block
}

// CFG is the intra-procedural control-flow graph of one function body.
// Build one with NewCFG, or Shared.CFGOf which caches per declaration.
// errflow walks it forward along Succs from an error's binding. goto is
// approximated as an edge to the exit; a call to panic terminates its
// block.
type CFG struct {
	// Entry is the function entry block.
	Entry *Block
	// Exit is the synthetic exit block reached by every return, fall-off
	// and (approximated) goto.
	Exit *Block
	// Blocks lists every block: entry first, exit last. Blocks no Succs
	// path from Entry reaches are unreachable code.
	Blocks []*Block
	// Defers collects the defer statements registered anywhere in the body,
	// in source order; they run at every exit.
	Defers []*ast.DeferStmt
}

// NewCFG builds the control-flow graph of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	cfg := &CFG{}
	entry := &Block{}
	cfg.Entry = entry
	cfg.Blocks = []*Block{entry}
	cfg.Exit = &Block{}
	b := &cfgBuilder{cfg: cfg, cur: entry}
	b.stmt(body)
	if b.cur != nil {
		edge(b.cur, cfg.Exit)
	}
	cfg.Blocks = append(cfg.Blocks, cfg.Exit)
	return cfg
}

// nodeAt locates the block and node index covering pos. The builder keeps
// block nodes disjoint, so at most one node contains any position.
func (c *CFG) nodeAt(pos token.Pos) (*Block, int) {
	for _, b := range c.Blocks {
		for i, n := range b.Nodes {
			if n.Pos() <= pos && pos < n.End() {
				return b, i
			}
		}
	}
	return nil, -1
}

// cfgFrame is one enclosing breakable construct during the build: a loop
// (break and continue targets) or a switch/select (break target only).
type cfgFrame struct {
	label  string
	isLoop bool
	brk    *Block
	cont   *Block
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block // nil after a terminator; restarted lazily for dead code
	// frames stacks the enclosing for/range/switch/select constructs.
	frames []cfgFrame
	// pendingLabel carries a label down to the construct it names.
	pendingLabel string
	// fallTarget is the next case clause's body while building a switch.
	fallTarget *Block
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// block returns the current block, starting a fresh (unreachable) one after
// a terminator so dead statements stay addressable.
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

// jump links the current block to target when control can still reach it.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		edge(b.cur, target)
	}
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findFrame resolves a break (needLoop=false) or continue (needLoop=true)
// to its enclosing frame, innermost first.
func (b *cfgBuilder) findFrame(label *ast.Ident, needLoop bool) *cfgFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if needLoop && !f.isLoop {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		then := b.newBlock()
		edge(cond, then)
		b.cur = then
		b.stmt(s.Body)
		thenEnd := b.cur
		done := b.newBlock()
		if s.Else != nil {
			els := b.newBlock()
			edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.jump(done)
		} else {
			edge(cond, done)
		}
		if thenEnd != nil {
			edge(thenEnd, done)
		}
		b.cur = done
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		done := b.newBlock()
		edge(b.cur, body)
		if s.Cond != nil {
			edge(b.cur, done)
		}
		cont := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			cont = post
		}
		b.frames = append(b.frames, cfgFrame{label: label, isLoop: true, brk: done, cont: cont})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		if post != nil {
			b.jump(post)
			b.cur = post
			b.add(s.Post)
			edge(b.cur, head)
		} else {
			b.jump(head)
		}
		b.cur = done
	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		body := b.newBlock()
		done := b.newBlock()
		edge(head, body)
		edge(head, done)
		b.frames = append(b.frames, cfgFrame{label: label, isLoop: true, brk: done, cont: head})
		b.cur = body
		b.stmt(s.Body)
		b.frames = b.frames[:len(b.frames)-1]
		b.jump(head)
		b.cur = done
	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body, true)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body, false)
	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.block()
		done := b.newBlock()
		b.frames = append(b.frames, cfgFrame{label: label, brk: done})
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			blk := b.newBlock()
			edge(head, blk)
			b.cur = blk
			b.stmt(clause.Comm)
			for _, st := range clause.Body {
				b.stmt(st)
			}
			b.jump(done)
		}
		b.frames = b.frames[:len(b.frames)-1]
		// A case-less select blocks forever; then no edge reaches done.
		b.cur = done
	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if f := b.findFrame(s.Label, false); f != nil {
				b.jump(f.brk)
			}
		case token.CONTINUE:
			if f := b.findFrame(s.Label, true); f != nil {
				b.jump(f.cont)
			}
		case token.GOTO:
			b.jump(b.cfg.Exit) // approximation: goto leaves the analysis
		case token.FALLTHROUGH:
			if b.fallTarget != nil {
				b.jump(b.fallTarget)
			}
		}
		b.cur = nil
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
		b.cur = nil
	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur = nil
		}
	case *ast.EmptyStmt:
	default:
		// Assign, Decl, IncDec, Send, Go: straight-line statements.
		b.add(s)
	}
}

// switchClauses builds the shared clause structure of switch and type
// switch: every clause body is a successor of the head block, fallthrough
// (expression switches only) links a body to the next clause's body, and a
// missing default makes the exit reachable directly from the head.
func (b *cfgBuilder) switchClauses(label string, body *ast.BlockStmt, allowFallthrough bool) {
	head := b.block()
	done := b.newBlock()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, st := range body.List {
		clauses = append(clauses, st.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		bodies[i] = b.newBlock()
		edge(head, bodies[i])
		if clause.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		edge(head, done)
	}
	b.frames = append(b.frames, cfgFrame{label: label, brk: done})
	prevFall := b.fallTarget
	for i, clause := range clauses {
		b.cur = bodies[i]
		for _, e := range clause.List {
			b.add(e)
		}
		if allowFallthrough && i+1 < len(clauses) {
			b.fallTarget = bodies[i+1]
		} else {
			b.fallTarget = nil
		}
		for _, st := range clause.Body {
			b.stmt(st)
		}
		b.jump(done)
	}
	b.fallTarget = prevFall
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = done
}

// isPanicCall matches a direct call to the panic builtin (by name — the
// builder has no type information, and shadowing panic would be perverse).
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
