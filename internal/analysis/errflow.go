package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ErrFlow enforces that every error produced by a call is checked — or
// explicitly, visibly discarded — on every control-flow path. It is the
// flow-sensitive upgrade of the convention that made the
// internal/objectrank schema-rate drop possible: an `error` silently
// thrown away on a rank-data path turns a data problem into a wrong
// ranking with no trace.
//
// Flagged:
//   - a call statement whose error result is ignored entirely: f()
//   - a blank discard: _ = f(), or v, _ := f() with error in the _ slot
//   - an error assigned to a variable that some path never reads before
//     the function returns or the variable is overwritten
//
// Not flagged:
//   - any read of the variable: if err != nil, return err, passing err
//     to another call, _ = err (discarding a named variable is visible
//     intent; discarding the call result is not)
//   - fmt print functions and writes to strings.Builder/bytes.Buffer
//     (their errors are vestigial)
//   - deferred calls (defer f.Close() is idiomatic shutdown)
//   - //arlint:allow errflow sentinels; -fix rewrites ignored calls to
//     the sentinel form `_ = f() //arlint:allow errflow ...`
//
// The checker is interprocedural through summaries (summary.go): a
// helper that *checks* a callee's error and then discards it — the
// variable's only uses are nil comparisons, and the helper has no error
// result to propagate through — satisfies the intraprocedural rule (the
// error was read) but still loses the error for every caller. The
// helper's summary records the drop, and every call site of such a
// helper is reported: the silent cross-function error drop is no longer
// an analysis hole.
var ErrFlow = &Analyzer{
	Name:   "errflow",
	Doc:    "a returned error must be checked or explicitly discarded on every path",
	CanFix: true,
	Run:    runErrFlow,
}

// errFact maps a pending error variable to the position of the
// assignment that produced it. Facts are immutable: transfer copies.
type errFact map[types.Object]token.Pos

func runErrFlow(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, fn := range functionsOf(file) {
			checkErrFlowFunc(pass, fn)
		}
		reportErrorDropperCalls(pass, file)
	}
}

// reportErrorDropperCalls flags every call to a function whose summary
// says it observes a callee's error and discards it without
// propagation. The drop site lives in the callee; the finding lands at
// the caller, because the caller is who loses the error.
func reportErrorDropperCalls(pass *Pass, file *ast.File) {
	info := pass.Pkg.Info
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cs := pass.Summaries.CalleeSummaryDevirt(info, call)
		if cs == nil || !cs.DropsError {
			return true
		}
		pass.Reportf(call.Pos(),
			"call to %s silently drops the error from %s (checked inside the callee but never propagated); surface it or add an //arlint:allow errflow sentinel at the drop site",
			callName(call), cs.DropSource)
		return true
	})
}

func checkErrFlowFunc(pass *Pass, fn funcBody) {
	info := pass.Pkg.Info
	g := BuildCFG(fn.body)

	// A bare `return` in a function with named results reads every
	// named result variable, including a named error.
	namedResults := make(map[types.Object]bool)
	var results *ast.FieldList
	if fn.decl != nil {
		results = fn.decl.Type.Results
	} else if fn.lit != nil {
		results = fn.lit.Type.Results
	}
	if results != nil {
		for _, field := range results.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					namedResults[obj] = true
				}
			}
		}
	}

	// reported dedupes across paths: union joins can surface the same
	// pending assignment at several blocks.
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		if fix != nil {
			pass.ReportfFix(pos, fix, format, args...)
		} else {
			pass.Reportf(pos, format, args...)
		}
	}

	transfer := func(b *Block, in errFact) errFact {
		out := in
		cloned := false
		clone := func() {
			if !cloned {
				c := make(errFact, len(out)+1)
				for k, v := range out {
					c[k] = v
				}
				out = c
				cloned = true
			}
		}
		for _, node := range b.Nodes {
			if ret, ok := node.(*ast.ReturnStmt); ok && ret.Results == nil {
				for obj := range out {
					if namedResults[obj] {
						clone()
						delete(out, obj)
					}
				}
				continue
			}
			if d, ok := node.(*ast.DeferStmt); ok {
				// Deferred calls are exempt from the ignored-result rule,
				// but reading a pending variable inside one still counts.
				for obj := range out {
					if usesObject(info, d.Call, obj, nil) {
						clone()
						delete(out, obj)
					}
				}
				continue
			}
			lhs := assignTargets(node)
			// Reads first: any appearance outside an assignment target
			// settles the pending error.
			for obj := range out {
				if usesObject(info, node, obj, lhs) {
					clone()
					delete(out, obj)
				}
			}
			// Then new definitions and ignored results.
			for _, src := range errorSources(pass, info, node) {
				if src.obj == nil {
					report(src.pos, src.fix, "%s", src.message)
					continue
				}
				if prev, pending := out[src.obj]; pending {
					report(prev, nil,
						"error assigned to %s is overwritten before being checked", src.obj.Name())
				}
				clone()
				out[src.obj] = src.pos
			}
		}
		return out
	}

	res := Solve(g, FlowProblem[errFact]{
		Entry:    errFact{},
		Transfer: transfer,
		Join: func(a, b errFact) errFact {
			if len(b) == 0 {
				return a
			}
			if len(a) == 0 {
				return b
			}
			out := make(errFact, len(a)+len(b))
			for k, v := range a {
				out[k] = v
			}
			for k, v := range b {
				out[k] = v
			}
			return out
		},
		Equal: func(a, b errFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if w, ok := b[k]; !ok || w != v {
					return false
				}
			}
			return true
		},
	})

	if !res.Reached[g.Exit.Index] {
		return // e.g. for {} with no exit path
	}
	for obj, pos := range res.In[g.Exit.Index] {
		report(pos, nil,
			"error assigned to %s is never checked on some path to return in %s", obj.Name(), fn.name)
	}
}

// errorSource is one event the transfer function reacts to: either a
// new pending variable (obj != nil) or an immediate finding (obj ==
// nil, message set).
type errorSource struct {
	obj     types.Object
	pos     token.Pos
	message string
	fix     *SuggestedFix
}

// errorSources extracts the error-producing events of one CFG node.
func errorSources(pass *Pass, info *types.Info, node ast.Node) []errorSource {
	var out []errorSource
	switch s := node.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok || !callReturnsError(info, call) || errExempt(info, call) {
			return nil
		}
		fix := &SuggestedFix{
			Message: "explicitly discard the error with a sentinel",
			Edits: []TextEdit{
				{Pos: call.Pos(), End: call.Pos(), NewText: "_ = "},
				{Pos: s.End(), End: s.End(), NewText: " //arlint:allow errflow TODO: justify discarding this error"},
			},
		}
		out = append(out, errorSource{
			pos:     call.Pos(),
			message: fmt.Sprintf("error result of %s is ignored; check it or discard it explicitly", callName(call)),
			fix:     fix,
		})
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return nil
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok || errExempt(info, call) {
			return nil
		}
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if !resultIsError(info, call, i, len(s.Lhs)) {
				continue
			}
			if id.Name == "_" {
				if len(s.Lhs) == 1 {
					// `_ = f()` alone: visible, but still silent without a
					// reason; the sentinel makes it auditable.
					out = append(out, errorSource{
						pos:     s.Pos(),
						message: fmt.Sprintf("error result of %s is discarded; add an //arlint:allow errflow sentinel with a reason", callName(call)),
						fix:     sentinelFix(s),
					})
				} else {
					out = append(out, errorSource{
						pos:     id.Pos(),
						message: fmt.Sprintf("error result of %s is dropped with _; capture and check it, or add an //arlint:allow errflow sentinel", callName(call)),
						fix:     sentinelFix(s),
					})
				}
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id] // plain = assignment
			}
			if v, ok := obj.(*types.Var); ok {
				out = append(out, errorSource{obj: v, pos: id.Pos()})
			}
		}
	}
	return out
}

// sentinelFix appends an //arlint:allow errflow sentinel to the
// statement's line, turning a silent drop into a recorded one.
func sentinelFix(s ast.Stmt) *SuggestedFix {
	return &SuggestedFix{
		Message: "record the discarded error with a sentinel",
		Edits: []TextEdit{
			{Pos: s.End(), End: s.End(), NewText: " //arlint:allow errflow TODO: justify discarding this error"},
		},
	}
}

// assignTargets returns the identifiers written (not read) by node, so
// the use scan can skip them.
func assignTargets(node ast.Node) map[*ast.Ident]bool {
	s, ok := node.(*ast.AssignStmt)
	if !ok {
		return nil
	}
	targets := make(map[*ast.Ident]bool, len(s.Lhs))
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			targets[id] = true
		}
	}
	return targets
}

// usesObject reports whether node reads obj (appearing anywhere except
// as one of the excluded assignment targets). Function literals inside
// node count as uses: the closure observes the variable.
func usesObject(info *types.Info, node ast.Node, obj types.Object, excluded map[*ast.Ident]bool) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || excluded[id] {
			return true
		}
		if info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// callReturnsError reports whether any result of call has type error.
func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// resultIsError reports whether result slot i (of nResults) of call has
// type error.
func resultIsError(info *types.Info, call *ast.CallExpr, i, nResults int) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		if i >= tup.Len() {
			return false
		}
		return isErrorType(tup.At(i).Type())
	}
	// Single-value call: v := f() or v, ok := m[k] style handled by the
	// caller; only slot 0 exists.
	return i == 0 && nResults == 1 && isErrorType(t)
}

var errorIface = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorIface)
}

// errExempt reports whether the call's error is conventionally
// ignorable: fmt printing, and writes to in-memory buffers whose Write
// never fails.
func errExempt(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return exemptFuncObj(info.Uses[fun])
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			recv := sel.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				obj := named.Obj()
				if obj.Pkg() != nil {
					switch obj.Pkg().Path() + "." + obj.Name() {
					case "strings.Builder", "bytes.Buffer":
						return true
					}
				}
			}
			return exemptFuncObj(sel.Obj())
		}
		return exemptFuncObj(info.Uses[fun.Sel])
	}
	return false
}

func exemptFuncObj(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if obj.Pkg().Path() != "fmt" {
		return false
	}
	name := obj.Name()
	return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
		strings.HasPrefix(name, "Sprint")
}

// callName renders the callee for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return types.ExprString(fun)
	default:
		return "call"
	}
}
