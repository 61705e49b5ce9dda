package lint

import (
	"go/ast"
	"go/types"
)

// Callee statically resolves a call expression to the *types.Func it
// invokes: a plain function, a qualified pkg.F, or a method value call.
// Dynamic calls (func-typed values, method expressions applied later) and
// builtins return nil.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // field of func type: dynamic
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// No selection entry: a qualified identifier pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// receiverNamed returns the named receiver type of a method, nil for plain
// functions or unnamed receivers.
func receiverNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named, ok := namedType(sig.Recv().Type())
	if !ok {
		return nil
	}
	return named
}

// Shared caches the flow artifacts of one Run so every analyzer pass reuses
// them: per-function control-flow graphs and a grab-bag of
// analyzer-computed module-wide facts.
type Shared struct {
	cfgs map[*ast.FuncDecl]*CFG

	// Facts caches module-wide analyzer state keyed by analyzer name
	// (lockorder stores its acquisition relation here), built on first use.
	Facts map[string]any
}

func newShared() *Shared {
	return &Shared{
		cfgs:  make(map[*ast.FuncDecl]*CFG),
		Facts: make(map[string]any),
	}
}

// CFGOf returns the control-flow graph of fd's body, cached per
// declaration; nil for bodyless declarations.
func (s *Shared) CFGOf(fd *ast.FuncDecl) *CFG {
	if fd == nil || fd.Body == nil {
		return nil
	}
	if c, ok := s.cfgs[fd]; ok {
		return c
	}
	c := NewCFG(fd.Body)
	s.cfgs[fd] = c
	return c
}
