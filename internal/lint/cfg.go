package lint

import (
	"go/ast"
	"go/token"
)

// Block is one basic block of a control-flow graph: statements and
// controlling expressions that execute in sequence, with a single entry.
type Block struct {
	// Index is the block's position in CFG.Blocks (the entry block is 0).
	Index int
	// Nodes are the statements and control expressions of the block, in
	// execution order. Conditions and loop headers appear as bare
	// expressions; whole statements appear as statements. Function-literal
	// bodies are opaque — they get their own CFG, not blocks here.
	Nodes []ast.Node
	// Succs are the possible successors.
	Succs []*Block
	// Preds are the predecessors.
	Preds []*Block
}

// CFG is the intra-procedural control-flow graph of one function body with
// dominator information. Build one with NewCFG, or Shared.CFGOf which
// caches per declaration. errflow walks it forward from an error's
// binding; Dominates answers whether one statement executes before another
// on every path. goto is approximated as an edge to the exit; a call to
// panic terminates its block.
type CFG struct {
	// Entry is the function entry block.
	Entry *Block
	// Exit is the synthetic exit block reached by every return, fall-off
	// and (approximated) goto.
	Exit *Block
	// Blocks lists every block: entry first, exit last. Blocks left without
	// predecessors are unreachable code.
	Blocks []*Block
	// Defers collects the defer statements registered anywhere in the body,
	// in source order; they run at every exit.
	Defers []*ast.DeferStmt

	// idom[i] is the Blocks index of block i's immediate dominator; the
	// entry is its own idom, unreachable blocks hold -1.
	idom []int
}

// NewCFG builds the control-flow graph of one function body and computes
// its dominator tree.
func NewCFG(body *ast.BlockStmt) *CFG {
	cfg := &CFG{}
	entry := &Block{Index: 0}
	cfg.Entry = entry
	cfg.Blocks = []*Block{entry}
	cfg.Exit = &Block{}
	b := &cfgBuilder{cfg: cfg, cur: entry}
	b.stmt(body)
	if b.cur != nil {
		edge(b.cur, cfg.Exit)
	}
	cfg.Exit.Index = len(cfg.Blocks)
	cfg.Blocks = append(cfg.Blocks, cfg.Exit)
	cfg.computeDominators()
	return cfg
}

// Dominates reports whether, on every execution path from the function
// entry to the statement containing b, the statement containing a executes
// first. Within one basic block the node order decides; across blocks the
// dominator tree does. Positions not covered by the graph answer false;
// an unreachable b is vacuously dominated (no path reaches it at all).
func (c *CFG) Dominates(a, b token.Pos) bool {
	ba, ia := c.nodeAt(a)
	bb, ib := c.nodeAt(b)
	if ba == nil || bb == nil {
		return false
	}
	if ba == bb {
		return ia <= ib
	}
	if c.idom[bb.Index] == -1 {
		return true // b is dead code; no path reaches it
	}
	if c.idom[ba.Index] == -1 {
		return false // a is dead code; it executes on no path
	}
	// Strict block domination: walk b's dominator chain towards the entry.
	for x := bb.Index; ; {
		parent := c.idom[x]
		if parent == ba.Index {
			return true
		}
		if parent == x { // reached the entry
			return false
		}
		x = parent
	}
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

// computeDominators runs the iterative dominator algorithm (Cooper, Harvey,
// Kennedy) over a reverse post-order of the reachable blocks.
func (c *CFG) computeDominators() {
	n := len(c.Blocks)
	order := make([]*Block, 0, n)
	seen := make([]bool, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(c.Entry)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpo := make([]int, n)
	for i := range rpo {
		rpo[i] = -1
	}
	for i, b := range order {
		rpo[b.Index] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[c.Entry.Index] = c.Entry.Index
	intersect := func(a, b int) int {
		for a != b {
			for rpo[a] > rpo[b] {
				a = idom[a]
			}
			for rpo[b] > rpo[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range order[1:] {
			newIdom := -1
			for _, p := range b.Preds {
				if idom[p.Index] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p.Index
				} else {
					newIdom = intersect(p.Index, newIdom)
				}
			}
			if newIdom != -1 && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	c.idom = idom
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
	to.Preds = append(to.Preds, from)
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
	blk := &Block{Index: len(b.cfg.Blocks)}
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
		// A case-less select blocks forever; done then has no preds.
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
