package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPure enforces the contract of the `//arlint:hot` directive: a
// function annotated hot — the kernel sweeps and the per-node score
// kernels the convergence loops execute millions of times — must be
//
//   - transitively NOT impure on the purity lattice (purity.go): writes
//     confined to parameter-reachable memory (the output-buffer shape),
//     no globals, no channels, no goroutines, no I/O. This is the
//     reorderability the local-estimation argument needs: per-node
//     evaluations writing disjoint output slots commute, so sweeps can
//     be partitioned, parallelized and rescheduled freely;
//   - allocation-free: no make/growing-append per call, directly or in
//     a callee (the Allocates summary fact);
//   - free of dynamic dispatch in its loops: every call inside a for or
//     range statement of the hot function and its transitive static
//     callees must resolve statically. Interface calls belong in the
//     snapshot phase (kernel.Snapshot), never in a sweep.
//
// The directive goes in the function's doc comment:
//
//	//arlint:hot
//	func (c *CSR) sweepRange(next, cur, p, d []float64, …) float64 { … }
//
// Unlike most checkers there is no sanctioned escape hatch: the
// acceptance contract for hot paths is zero baseline suppressions —
// either the function is provably well-behaved or the annotation (or
// the code) is wrong.
var HotPure = &Analyzer{
	Name: "hotpure",
	Doc:  "//arlint:hot functions must be transitively pure, allocation-free, and free of dynamic calls in loops",
	Run:  runHotPure,
}

// hotSentinel is the directive comment marking a hot function.
const hotSentinel = "arlint:hot"

// isHotAnnotated reports whether fd carries the //arlint:hot directive
// in its doc comment.
func isHotAnnotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == hotSentinel || strings.HasPrefix(text, hotSentinel+" ") {
			return true
		}
	}
	return false
}

func runHotPure(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotAnnotated(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	name := fn.Name()
	s := pass.Summaries.Of(fn)
	if s == nil {
		return // no summary support (intraprocedural unit-test pass)
	}

	if s.Purity == PurityImpure {
		pass.Reportf(fd.Name.Pos(), "hot function %s is not transitively pure: %s", name, s.PurityCause)
	}
	if s.Allocates {
		via := ""
		if s.AllocVia != "" {
			via = " (via " + s.AllocVia + ")"
		}
		pass.Reportf(fd.Name.Pos(), "hot function %s allocates per call%s; hoist the buffer to the caller or a pool", name, via)
	}

	// Dynamic dispatch in loops, over the hot region: the annotated
	// function plus every transitively reachable static callee. A
	// violation in the annotated body reports at the call; one inside a
	// callee reports at the annotation, naming where the dispatch
	// hides — the callee may live in another package whose pass cannot
	// carry the finding.
	root := pass.Graph.NodeOf(fn)
	if root == nil {
		return
	}
	visited := map[*CGNode]bool{root: true}
	work := []*CGNode{root}
	for len(work) > 0 {
		node := work[0]
		work = work[1:]
		for _, call := range dynamicCallsInLoops(node) {
			if node == root {
				pass.Reportf(call.Pos(), "hot function %s makes a dynamic call inside a loop: %s resolves at run time; hoist the interface access out of the sweep",
					name, types.ExprString(call.Fun))
			} else {
				p := node.Pkg.Fset.Position(call.Pos())
				pass.Reportf(fd.Name.Pos(), "hot function %s reaches a dynamic call in a loop via %s (%s:%d): %s resolves at run time",
					name, node.String(), p.Filename, p.Line, types.ExprString(call.Fun))
			}
		}
		for _, c := range node.Calls {
			if !visited[c] {
				visited[c] = true
				work = append(work, c)
			}
		}
	}
}

// dynamicCallsInLoops returns the call expressions inside for/range
// bodies of node whose callee does not resolve statically: interface
// method calls and func-value calls. Builtins, conversions and
// immediately-invoked literals are exempt (no dispatch), as are calls
// to whitelisted pure externals (math.Abs compiles to an instruction,
// not a call).
func dynamicCallsInLoops(node *CGNode) []*ast.CallExpr {
	info := node.Pkg.Info
	var out []*ast.CallExpr
	var scanLoop func(body ast.Node)
	scanLoop = func(body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun := ast.Unparen(call.Fun)
			if _, isLit := fun.(*ast.FuncLit); isLit {
				return true
			}
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := fun.(*ast.Ident); ok {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					return true
				}
			}
			if StaticCallee(info, call) == nil {
				out = append(out, call)
			}
			return true
		})
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			scanLoop(n.Body)
			return false // the scan already covers nested loops
		case *ast.RangeStmt:
			scanLoop(n.Body)
			return false
		}
		return true
	})
	return out
}
