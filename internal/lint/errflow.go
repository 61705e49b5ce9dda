package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// errflowTargets lists the functions whose error results guard durability:
// dropping one silently de-syncs the journal from the in-memory state. A
// row names methods of typ, or plain functions when typ is empty. The
// journal gates are here too: a receipt taken with its error dropped
// (rc, _ := sh.journalLocked(w, ev)) still compiles.
var errflowTargets = []struct {
	pkg   string
	typ   string
	funcs []string
}{
	{pkg: "internal/wal", typ: "Log", funcs: []string{"Append", "Sync", "WriteSnapshot", "Compact"}},
	{pkg: "internal/market", typ: "Store", funcs: []string{"Submit", "Accept", "Reject", "Assign", "ExpireOverdue"}},
	{pkg: "internal/market", typ: "Journal", funcs: []string{"Snapshot"}},
	{pkg: "internal/market", typ: "shard", funcs: []string{"journalLocked"}},
	{pkg: "internal/sched", typ: "Service", funcs: []string{"journalDecision", "journalRun"}},
	{pkg: "internal/sched", funcs: []string{"appendRecord"}},
}

// ErrFlow tracks the error results of the durability-critical calls — WAL
// appends and syncs, ledger writes, store mutators — through the CFG: the
// error may not be discarded (a bare call, defer, go, or assignment to _),
// and once bound to a variable it must be read on every path before being
// overwritten or going out of scope. A shadowing redeclaration does not
// count as a read, so the classic `err := ...; if err := other(); ...`
// mistake is caught too.
var ErrFlow = &Analyzer{
	Name:  "errflow",
	Doc:   "errors from WAL appends, ledger writes and store mutators must be inspected before being dropped or overwritten",
	Paths: []string{"internal/market", "internal/sched", "internal/wal"},
	Run:   runErrFlow,
}

func runErrFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkErrFlow(pass, fd)
		}
	}
}

// checkErrFlow walks one function body statement-wise, classifying every
// call to a tracked function by how its error result is received.
func checkErrFlow(pass *Pass, fd *ast.FuncDecl) {
	cfg := pass.Shared.CFGOf(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, what, _ := trackedCall(pass, s.X); call != nil {
				pass.Reportf(call.Pos(), "error from %s is discarded; a dropped %s error de-syncs the journal from the applied state — inspect it", what, what)
			}
		case *ast.DeferStmt:
			if call, what, _ := trackedCall(pass, s.Call); call != nil {
				pass.Reportf(call.Pos(), "error from %s is discarded by defer; inspect it in a closure instead", what)
			}
		case *ast.GoStmt:
			if call, what, _ := trackedCall(pass, s.Call); call != nil {
				pass.Reportf(call.Pos(), "error from %s is discarded by go; the goroutine must inspect it", what)
			}
		case *ast.AssignStmt:
			if len(s.Rhs) != 1 {
				return true
			}
			call, what, errIdx := trackedCall(pass, s.Rhs[0])
			if call == nil || errIdx >= len(s.Lhs) {
				return true
			}
			checkErrBinding(pass, fd, cfg, s, s.Lhs[errIdx], s.Tok, call, what)
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 1 {
					continue
				}
				call, what, errIdx := trackedCall(pass, vs.Values[0])
				if call == nil || errIdx >= len(vs.Names) {
					continue
				}
				checkErrBinding(pass, fd, cfg, s, vs.Names[errIdx], token.DEFINE, call, what)
			}
		}
		return true
	})
}

// checkErrBinding handles a tracked call whose error result is bound to lhs
// by the statement def: blank means discarded; a named binding is traced
// through the CFG until its first read, overwrite, or scope exit.
func checkErrBinding(pass *Pass, fd *ast.FuncDecl, cfg *CFG, def ast.Stmt, lhs ast.Expr, tok token.Token, call *ast.CallExpr, what string) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return // bound to a field or index: it escapes, assume inspected
	}
	if id.Name == "_" {
		pass.Reportf(call.Pos(), "error from %s is assigned to _; a dropped %s error de-syncs the journal from the applied state — inspect it", what, what)
		return
	}
	var obj types.Object
	if tok == token.DEFINE {
		obj = pass.Pkg.Info.Defs[id]
	} else {
		obj = pass.Pkg.Info.Uses[id]
	}
	if obj == nil || cfg == nil {
		return
	}
	traceErrUse(pass, cfg, def, obj, call, what)
}

// traceErrUse walks the CFG forward from the binding statement and checks
// that every path reads obj before overwriting it or leaving the function.
func traceErrUse(pass *Pass, cfg *CFG, def ast.Stmt, obj types.Object, call *ast.CallExpr, what string) {
	startBlk, startIdx := cfg.nodeAt(def.Pos())
	if startBlk == nil {
		return
	}
	// Scan the rest of the binding block, then flood the successors. Each
	// block is visited once; a read closes a path, a write before a read or
	// an un-read fall into the exit is the finding.
	type frontier struct {
		b    *Block
		from int
	}
	queue := []frontier{{startBlk, startIdx + 1}}
	seen := map[*Block]bool{startBlk: true}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		resolved := false
		for i := f.from; i < len(f.b.Nodes); i++ {
			read, written := touchesObj(pass, f.b.Nodes[i], obj)
			if read {
				resolved = true
				break
			}
			if written {
				pos := pass.Pkg.Fset.Position(f.b.Nodes[i].Pos())
				pass.Reportf(call.Pos(), "error from %s is overwritten at line %d before being inspected", what, pos.Line)
				return
			}
		}
		if resolved {
			continue
		}
		if f.b == cfg.Exit {
			pass.Reportf(call.Pos(), "error from %s can reach a return without being inspected; check it on every path", what)
			return
		}
		for _, s := range f.b.Succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, frontier{s, 0})
			}
		}
	}
}

// touchesObj classifies one CFG node's use of obj: read (any use outside a
// plain-assignment left-hand side) and written (a plain = to it). A :=
// redeclaration introduces a different object, so shadowing is neither.
func touchesObj(pass *Pass, n ast.Node, obj types.Object) (read, written bool) {
	lhs := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				lhs[id] = true
			}
		}
		return true
	})
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok || pass.Pkg.Info.Uses[id] != obj {
			return true
		}
		if lhs[id] {
			written = true
		} else {
			read = true
		}
		return true
	})
	return read, written
}

// trackedCall matches an expression that is a call to one of errflow's
// targets and returns the call, a human name for it, and the index of the
// error result. Only calls that actually return an error are tracked.
func trackedCall(pass *Pass, e ast.Expr) (*ast.CallExpr, string, int) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, "", 0
	}
	fn := Callee(pass.Pkg.Info, call)
	if fn == nil {
		return nil, "", 0
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, "", 0
	}
	errIdx := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			errIdx = i
		}
	}
	if errIdx < 0 || fn.Pkg() == nil {
		return nil, "", 0
	}
	typ, what := "", fn.Name()
	if recv := receiverNamed(fn); recv != nil {
		typ = recv.Obj().Name()
		what = typ + "." + what
	}
	for _, t := range errflowTargets {
		if t.typ != typ || !PathMatches(fn.Pkg().Path(), t.pkg) {
			continue
		}
		for _, name := range t.funcs {
			if fn.Name() == name {
				return call, what, errIdx
			}
		}
	}
	return nil, "", 0
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
