package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc is the performance lint for the iteration engines: inside a
// power-iteration loop — the per-iteration convergence loop of the
// pagerank, core (ApproxRank's extended chain), hits and blockrank
// packages — every `make` is a fresh allocation per iteration and
// every `append` to a slice without preallocated capacity reallocates
// as it grows. Both belong before the loop: the iteration count is
// bounded by MaxIterations, so buffers can be sized once.
//
// A power-iteration loop is recognized by the repository's convention:
// a `for` statement whose init declares a variable named "iter" or
// whose condition mentions MaxIterations, or the step function literal
// passed to an Iterate call (kernel.Iterate, or an engine's iterate
// wrapper), which runs once per iteration. Function literals inside the
// loop body (the parallel engine's workers) run once per iteration and
// are scanned too.
//
// An append target counts as preallocated when the same expression is
// assigned a three-argument make (explicit capacity) earlier in the
// function. Intentional per-iteration allocations take an
// //arlint:allow hotalloc sentinel.
//
// A flagged `x := make(...)` whose size arguments are loop-invariant —
// every mentioned variable is declared before the loop and never
// assigned inside it — carries a mechanical fix that hoists the
// statement immediately before the loop.
//
// The checker is interprocedural through summaries (summary.go): a
// static call inside the loop to a module function whose summary says
// it allocates — directly or via its own callees — is flagged exactly
// like an inline make. Hiding the allocation in a helper is no longer
// an analysis hole.
var HotAlloc = &Analyzer{
	Name:        "hotalloc",
	Doc:         "no allocations or append growth inside power-iteration loops (pagerank/core/hits/blockrank)",
	LibraryOnly: true,
	CanFix:      true,
	Run:         runHotAlloc,
}

// hotPackages are the iteration engines the checker covers.
var hotPackages = map[string]bool{
	"pagerank": true, "approxrank": true, "hits": true, "blockrank": true, "core": true,
	"kernel": true, // the shared flat-sweep layer every engine runs on
}

func runHotAlloc(pass *Pass) {
	if !hotPackages[pass.Pkg.Name] {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkHotAllocFunc(pass, fn)
		}
	}
}

func checkHotAllocFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		hot, body := powerBody(n)
		if body == nil {
			return true
		}
		loop, _ := hot.(*ast.ForStmt) // only a for loop takes the hoist fix
		// Map each single-define `x := <call>` statement in the body to
		// its call, so the make case below can offer a hoist fix for the
		// whole statement rather than the bare expression.
		defines := make(map[*ast.CallExpr]*ast.AssignStmt)
		ast.Inspect(body, func(m ast.Node) bool {
			if as, ok := m.(*ast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
					defines[call] = as
				}
			}
			return true
		})
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			isBuiltin := false
			if ok {
				_, isBuiltin = info.Uses[id].(*types.Builtin)
			}
			if !isBuiltin {
				// Interprocedural: a call to a module function that
				// allocates per call is an allocation per iteration.
				if cs := pass.Summaries.CalleeSummaryDevirt(info, call); cs != nil && cs.Allocates {
					via := ""
					if cs.AllocVia != "" {
						via = " (via " + cs.AllocVia + ")"
					}
					pass.Reportf(call.Pos(),
						"call to %s inside the power-iteration loop of %s allocates every iteration%s; hoist the allocation or restructure the helper",
						callName(call), fn.Name.Name, via)
				}
				return true
			}
			switch id.Name {
			case "make":
				pass.ReportfFix(call.Pos(), hoistMakeFix(pass, loop, call, defines[call]),
					"make inside the power-iteration loop of %s allocates every iteration; hoist it before the loop",
					fn.Name.Name)
			case "append":
				if len(call.Args) == 0 {
					return true
				}
				target := types.ExprString(call.Args[0])
				if preallocatedBefore(fn, target, hot) {
					return true
				}
				pass.Reportf(call.Pos(),
					"append to %q grows inside the power-iteration loop of %s; preallocate it with capacity (make(..., 0, n)) before the loop",
					target, fn.Name.Name)
			}
			return true
		})
		return false // nested loops are part of the same iteration body
	})
}

// powerBody returns the code n runs once per power iteration, with the
// node it belongs to: the body of a conventional convergence loop (see
// isPowerLoop), or the step literal passed to an Iterate call. It
// returns a nil body for any other node.
func powerBody(n ast.Node) (ast.Node, *ast.BlockStmt) {
	switch n := n.(type) {
	case *ast.ForStmt:
		if isPowerLoop(n) {
			return n, n.Body
		}
	case *ast.CallExpr:
		if name := callName(n); name == "iterate" || name == "Iterate" || strings.HasSuffix(name, ".Iterate") {
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					return lit, lit.Body
				}
			}
		}
	}
	return nil, nil
}

// hoistMakeFix builds the mechanical hoist for the common shape
//
//	x := make(T, size...)
//
// when the make is the whole right-hand side of a single-variable
// define and every variable mentioned by its arguments is declared
// outside the loop and never assigned inside it — the buffer's size is
// then loop-invariant, so the identical statement placed immediately
// before the loop allocates once and the body reuses the buffer. Any
// other shape (multi-assign, plain assignment, size depending on loop
// state, make nested in a larger expression) gets no fix; the
// diagnostic alone is the answer there. Callers that relied on a
// freshly ZEROED buffer each iteration must clear it after hoisting —
// the same caveat the diagnostic's advice always had.
func hoistMakeFix(pass *Pass, loop *ast.ForStmt, call *ast.CallExpr, as *ast.AssignStmt) *SuggestedFix {
	if as == nil || loop == nil {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	info := pass.Pkg.Info
	for _, arg := range call.Args {
		invariant := true
		ast.Inspect(arg, func(m ast.Node) bool {
			aid, isIdent := m.(*ast.Ident)
			if !isIdent || !invariant {
				return invariant
			}
			v, isVar := info.Uses[aid].(*types.Var)
			if !isVar {
				return true // types, consts, funcs: nothing to invalidate
			}
			if v.Pos() >= loop.Pos() && v.Pos() < loop.End() {
				invariant = false // declared inside the loop (incl. iter)
			} else if assignedWithin(info, loop, v) {
				invariant = false
			}
			return invariant
		})
		if !invariant {
			return nil
		}
	}
	return &SuggestedFix{
		Message: "hoist the loop-invariant make before the loop",
		Edits: []TextEdit{
			{Pos: loop.Pos(), End: loop.Pos(), NewText: id.Name + " := " + types.ExprString(call) + "\n"},
			{Pos: as.Pos(), End: as.End(), NewText: ""},
		},
	}
}

// assignedWithin reports whether v may be mutated inside node: it is
// the target of an assignment or inc/dec, a range variable, or has its
// address taken (after which any callee could write it).
func assignedWithin(info *types.Info, node ast.Node, v *types.Var) bool {
	isV := func(e ast.Expr) bool {
		eid, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[eid] == v
	}
	found := false
	ast.Inspect(node, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if isV(lhs) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if isV(m.X) {
				found = true
			}
		case *ast.UnaryExpr:
			if m.Op == token.AND && isV(m.X) {
				found = true
			}
		case *ast.RangeStmt:
			if (m.Key != nil && isV(m.Key)) || (m.Value != nil && isV(m.Value)) {
				found = true
			}
		}
		return true
	})
	return found
}

// isPowerLoop recognizes the repository's convergence-loop convention:
// `for iter := 1; iter <= cfg.MaxIterations; iter++`.
func isPowerLoop(loop *ast.ForStmt) bool {
	if init, ok := loop.Init.(*ast.AssignStmt); ok {
		for _, lhs := range init.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "iter" {
				return true
			}
		}
	}
	if loop.Cond == nil {
		return false
	}
	mentions := false
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && strings.Contains(id.Name, "MaxIter") {
			mentions = true
		}
		return true
	})
	return mentions
}

// preallocatedBefore reports whether target (rendered expression, e.g.
// "res.Deltas") is assigned a make with explicit capacity somewhere in
// fn before the loop (a for loop or an Iterate step literal). A nil loop
// (the summary layer asking about the whole function) accepts a
// capacity make anywhere in the body.
func preallocatedBefore(fn *ast.FuncDecl, target string, loop ast.Node) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if loop != nil && n.Pos() >= loop.Pos() {
			return false // only assignments before the loop qualify
		}
		s, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range s.Lhs {
			if types.ExprString(lhs) != target || i >= len(s.Rhs) {
				continue
			}
			if call, ok := s.Rhs[i].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" && len(call.Args) == 3 {
					found = true
				}
			}
		}
		return true
	})
	return found
}
