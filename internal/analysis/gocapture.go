package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoCapture flags goroutine literals that write to variables declared
// outside the closure. Unsynchronized writes to captured variables are
// the data race the kernel's SweepPool is engineered to avoid: its
// workers only ever write through worker-indexed slots (next[v] in
// their own range, deltas[w]) so that no two goroutines touch the same
// element.
//
// Allowed forms inside a `go func(...) {...}`:
//   - writes to variables declared inside the closure (including params)
//   - element writes through an index expression — the worker-indexed
//     slot pattern (the checker trusts the index partitioning)
//   - closures that take a lock: any call to a method named Lock or
//     RLock inside the closure exempts it
//   - an //arlint:allow gocapture sentinel
var GoCapture = &Analyzer{
	Name: "gocapture",
	Doc:  "flag goroutines writing captured variables without sync or worker-indexed slots",
	Run:  runGoCapture,
}

func runGoCapture(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			if closureTakesLock(lit) {
				return true
			}
			checkCapturedWrites(pass, lit)
			return true
		})
	}
}

// checkCapturedWrites reports writes inside lit whose target variable is
// declared outside lit.
func checkCapturedWrites(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				checkWriteTarget(pass, lit, lhs)
			}
		case *ast.IncDecStmt:
			checkWriteTarget(pass, lit, stmt.X)
		case *ast.RangeStmt:
			if stmt.Tok == token.ASSIGN {
				checkWriteTarget(pass, lit, stmt.Key)
				checkWriteTarget(pass, lit, stmt.Value)
			}
		}
		return true
	})
}

func checkWriteTarget(pass *Pass, lit *ast.FuncLit, target ast.Expr) {
	switch t := target.(type) {
	case nil:
		return
	case *ast.IndexExpr:
		// Worker-indexed slot: each goroutine owns a disjoint set of
		// elements. The partitioning itself is the caller's contract.
		return
	case *ast.Ident:
		if obj := capturedVar(pass.Pkg.Info, t, lit); obj != nil {
			pass.Reportf(t.Pos(),
				"goroutine writes captured variable %q declared outside the closure; use a sync primitive or a worker-indexed slot", t.Name)
		}
	case *ast.SelectorExpr:
		if root := rootIdent(t); root != nil {
			if obj := capturedVar(pass.Pkg.Info, root, lit); obj != nil {
				pass.Reportf(t.Pos(),
					"goroutine writes field of captured variable %q; use a sync primitive or a worker-indexed slot", root.Name)
			}
		}
	case *ast.ParenExpr:
		checkWriteTarget(pass, lit, t.X)
	}
}

// capturedVar returns the variable object t refers to if it is declared
// outside lit, or nil if the write is closure-local (or not a variable).
func capturedVar(info *types.Info, t *ast.Ident, lit *ast.FuncLit) types.Object {
	if t.Name == "_" {
		return nil
	}
	obj := info.Uses[t]
	if obj == nil {
		obj = info.Defs[t] // := defines the variable inside the closure
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
		return nil
	}
	return v
}

// rootIdent walks to the leftmost identifier of a selector chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// closureTakesLock reports whether lit calls a Lock/RLock method
// anywhere in its body; such closures are assumed to guard their shared
// writes with the corresponding critical section.
func closureTakesLock(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
