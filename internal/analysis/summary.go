package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes per-function summaries bottom-up over the SCCs of
// the call graph (callgraph.go). A summary is the fixed set of facts the
// interprocedural checkers consult at a call site instead of treating
// the call as opaque:
//
//	DropsError      the function observes a callee's error and discards
//	                it without propagation — its callers lose the error
//	Allocates       make / growing append runs per call, directly or in
//	                a callee — a hot loop calling it allocates per
//	                iteration
//	TaintedResults  result i is assembled in map-iteration order and
//	                not sorted before return — callers inherit the
//	                nondeterminism
//	SpawnsGoroutine the function (or a callee) starts a goroutine
//	SendsParams /   channel-typed parameter i is sent to, closed, or
//	ClosesParams /  received from (drained) — how chanleak sees through
//	DrainsParams    worker helpers
//	DonesParams     *sync.WaitGroup parameter i gets Done() on every
//	                path to return — how wgbalance sees through spawned
//	                helpers
//	CtxParam /      position of a context.Context parameter and whether
//	ForwardsCtx     the function forwards it to every context-aware
//	                callee — consumed by ctxflow
//
// The lattice is a product of booleans ordered false < true ("no known
// effect" < "has the effect") for may-facts, and true > false for the
// must-fact DonesParams (a guarantee is claimed only when proven).
// Within one SCC the solver iterates to a fixpoint: may-facts start at
// bottom (false) and only ascend, the Done guarantee starts unproven
// and is promoted only when the current iteration proves it from the
// (monotonically growing) facts of the SCC — so a recursive pair of
// functions converges in at most a few passes and can never oscillate.

// Summary is the interprocedural fact sheet of one declared function.
type Summary struct {
	// DropsError: the function checks an error produced by a call and
	// then discards it — the error variable's only uses are nil
	// comparisons — while having no error result of its own. DropPos is
	// the discarded assignment, DropSource names the producing call.
	DropsError bool
	DropPos    token.Pos
	DropSource string

	// Allocates: the function body (or a static callee) executes make
	// or a growing append on every call. AllocVia names the direct
	// callee responsible when the allocation is inherited.
	Allocates bool
	AllocVia  string

	// TaintedResults[i]: result i carries data accumulated in
	// map-iteration order with no sort before return.
	TaintedResults []bool

	// SpawnsGoroutine: a go statement runs in the function or a callee.
	SpawnsGoroutine bool

	// Per-parameter channel and WaitGroup effects, indexed by the
	// function's parameter positions (variadic included, receiver not).
	SendsParams  []bool
	ClosesParams []bool
	DrainsParams []bool
	DonesParams  []bool

	// CtxParam is the index of the first context.Context parameter, -1
	// when the function does not accept one. ForwardsCtx reports that
	// every context-accepting call in the body receives the function's
	// own context (or one derived from it).
	CtxParam    int
	ForwardsCtx bool

	// Variadic records whether the summarized function's last parameter
	// is variadic — consulted by ParamIndex when mapping call arguments
	// to the per-parameter effect slots above.
	Variadic bool

	// Purity is the function's point on the purity lattice (purity.go):
	// Pure ⊏ Output (writes confined to parameter-reachable memory) ⊏
	// Impure. PurityCause names the first fact that forced the current
	// level, for diagnostics and the dot labels.
	Purity      Purity
	PurityCause string
	// WritesParams[i]: the function may write memory reachable from
	// parameter i (directly or via a callee). WritesRecv is the same
	// for a method's receiver. WritesEscaped records an Output-level
	// write the analysis could not attribute to any parameter — callers
	// must assume any pointer-like argument may be written.
	WritesParams  []bool
	WritesRecv    bool
	WritesEscaped bool
}

// ParamIndex maps a call-argument position to the parameter slot it
// binds: for a variadic callee every argument at or past the variadic
// slot folds onto the variadic parameter (`f(a, x, y)` and
// `f(a, xs...)` both reach slot 1 of `f(a T, xs ...U)`). Returns -1
// when the position binds no parameter (or s is nil — no summary, no
// slots).
func (s *Summary) ParamIndex(ai int) int {
	if s == nil {
		return -1
	}
	np := len(s.SendsParams)
	if s.Variadic && np > 0 && ai >= np-1 {
		return np - 1
	}
	if ai < np {
		return ai
	}
	return -1
}

// Summaries holds the computed summary of every call-graph node.
type Summaries struct {
	Graph *CallGraph

	byFunc map[*types.Func]*Summary
}

// Of returns fn's summary, or nil when fn is not an analyzed declared
// function.
func (s *Summaries) Of(fn *types.Func) *Summary {
	if s == nil || fn == nil {
		return nil
	}
	return s.byFunc[fn.Origin()]
}

// CalleeSummary resolves a call expression to the summary of its static
// callee, or nil for dynamic and out-of-module calls.
func (s *Summaries) CalleeSummary(info *types.Info, call *ast.CallExpr) *Summary {
	if s == nil {
		return nil
	}
	return s.Of(StaticCallee(info, call))
}

// CalleeSummaryDevirt is CalleeSummary extended through the candidate
// edges: at an interface-method call site it returns the pessimistic
// join of the summaries of every known implementation in the analyzed
// package set, so checkers see through the kernel.Source seam (which
// pagerank.DirectedGraph aliases) instead of going to ⊤. The join keeps may-facts (drops-error,
// allocates, sends, purity level …) if ANY implementation has them and
// must-facts (Done-on-all-paths, context forwarding) only if EVERY
// implementation proves them — sound for both polarities no matter
// which implementation runs. Nil when the callee is neither static nor
// an interface method with at least one candidate.
func (s *Summaries) CalleeSummaryDevirt(info *types.Info, call *ast.CallExpr) *Summary {
	if s == nil {
		return nil
	}
	if cs := s.Of(StaticCallee(info, call)); cs != nil {
		return cs
	}
	if s.Graph == nil {
		return nil
	}
	cands := s.Graph.CandidatesOf(info, call)
	if len(cands) == 0 {
		return nil
	}
	return joinSummaries(s, cands)
}

// joinSummaries folds the candidates' summaries into one joined view:
// may-facts by OR, must-facts by AND, purity by lattice max. All
// candidates implement the same interface method, so the per-parameter
// slices line up; joins still guard on length for safety.
func joinSummaries(s *Summaries, cands []*CGNode) *Summary {
	var out *Summary
	for _, c := range cands {
		cs := s.byFunc[c.Func]
		if cs == nil {
			continue
		}
		if out == nil {
			cp := *cs
			cp.TaintedResults = append([]bool(nil), cs.TaintedResults...)
			cp.SendsParams = append([]bool(nil), cs.SendsParams...)
			cp.ClosesParams = append([]bool(nil), cs.ClosesParams...)
			cp.DrainsParams = append([]bool(nil), cs.DrainsParams...)
			cp.DonesParams = append([]bool(nil), cs.DonesParams...)
			cp.WritesParams = append([]bool(nil), cs.WritesParams...)
			out = &cp
			continue
		}
		if cs.DropsError && !out.DropsError {
			out.DropsError = true
			out.DropPos = cs.DropPos
			out.DropSource = cs.DropSource
		}
		if cs.Allocates && !out.Allocates {
			out.Allocates = true
			out.AllocVia = cs.AllocVia
		}
		orBools(out.TaintedResults, cs.TaintedResults)
		orBools(out.SendsParams, cs.SendsParams)
		orBools(out.ClosesParams, cs.ClosesParams)
		orBools(out.DrainsParams, cs.DrainsParams)
		orBools(out.WritesParams, cs.WritesParams)
		andBools(out.DonesParams, cs.DonesParams)
		out.SpawnsGoroutine = out.SpawnsGoroutine || cs.SpawnsGoroutine
		out.WritesRecv = out.WritesRecv || cs.WritesRecv
		out.WritesEscaped = out.WritesEscaped || cs.WritesEscaped
		out.ForwardsCtx = out.ForwardsCtx && cs.ForwardsCtx
		if cs.Purity > out.Purity {
			out.Purity = cs.Purity
			out.PurityCause = cs.PurityCause
		}
	}
	return out
}

func orBools(dst, src []bool) {
	for i := range dst {
		if i < len(src) && src[i] {
			dst[i] = true
		}
	}
}

func andBools(dst, src []bool) {
	for i := range dst {
		if i >= len(src) || !src[i] {
			dst[i] = false
		}
	}
}

// ComputeSummaries walks the call graph's SCCs bottom-up and computes
// every node's summary, iterating within each SCC to a fixpoint.
func ComputeSummaries(cg *CallGraph) *Summaries {
	sums := &Summaries{Graph: cg, byFunc: make(map[*types.Func]*Summary, len(cg.Nodes))}
	for _, n := range cg.Nodes {
		sig := n.Func.Type().(*types.Signature)
		np := sig.Params().Len()
		nr := sig.Results().Len()
		s := &Summary{
			TaintedResults: make([]bool, nr),
			SendsParams:    make([]bool, np),
			ClosesParams:   make([]bool, np),
			DrainsParams:   make([]bool, np),
			DonesParams:    make([]bool, np),
			WritesParams:   make([]bool, np),
			CtxParam:       -1,
			Variadic:       sig.Variadic(),
		}
		for i := 0; i < np; i++ {
			if isContextType(sig.Params().At(i).Type()) {
				s.CtxParam = i
				break
			}
		}
		sums.byFunc[n.Func] = s
	}
	for _, scc := range cg.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if summarizeNode(sums, n) {
					changed = true
				}
			}
		}
	}
	return sums
}

// summarizeNode recomputes n's summary from its body and the current
// summaries of its callees, and reports whether anything ascended.
func summarizeNode(sums *Summaries, n *CGNode) bool {
	s := sums.byFunc[n.Func]
	old := *s
	oldTaint := append([]bool(nil), s.TaintedResults...)
	oldDones := append([]bool(nil), s.DonesParams...)
	oldSends := append([]bool(nil), s.SendsParams...)
	oldCloses := append([]bool(nil), s.ClosesParams...)
	oldDrains := append([]bool(nil), s.DrainsParams...)
	oldWrites := append([]bool(nil), s.WritesParams...)

	info := n.Pkg.Info
	body := n.Decl.Body

	summarizeErrorDrop(n, s)
	summarizeAlloc(sums, n, s)
	summarizeTaint(sums, n, s)
	summarizeConcurrency(sums, n, s)
	summarizePurity(sums, n, s)

	// Context forwarding: every context-accepting call receives the
	// function's own (or a derived) context.
	if s.CtxParam >= 0 {
		s.ForwardsCtx = true
		ctxObjs := contextDerived(info, body, paramObj(n, s.CtxParam))
		ast.Inspect(body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if idx := contextArgIndex(info, call); idx >= 0 && idx < len(call.Args) {
				if !usesAnyObject(info, call.Args[idx], ctxObjs) {
					s.ForwardsCtx = false
				}
			}
			return true
		})
	}

	if old.DropsError != s.DropsError || old.Allocates != s.Allocates ||
		old.SpawnsGoroutine != s.SpawnsGoroutine || old.ForwardsCtx != s.ForwardsCtx ||
		old.Purity != s.Purity || old.WritesRecv != s.WritesRecv ||
		old.WritesEscaped != s.WritesEscaped {
		return true
	}
	return !boolsEqual(oldTaint, s.TaintedResults) || !boolsEqual(oldDones, s.DonesParams) ||
		!boolsEqual(oldSends, s.SendsParams) || !boolsEqual(oldCloses, s.ClosesParams) ||
		!boolsEqual(oldDrains, s.DrainsParams) || !boolsEqual(oldWrites, s.WritesParams)
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// paramObj returns the types object of parameter i of n.
func paramObj(n *CGNode, i int) types.Object {
	sig := n.Func.Type().(*types.Signature)
	if i < 0 || i >= sig.Params().Len() {
		return nil
	}
	return sig.Params().At(i)
}

// summarizeErrorDrop detects the check-and-discard pattern: an error
// variable assigned from a call whose every use is a nil comparison, in
// a function that has no error result to propagate through. The
// intraprocedural errflow checker accepts any read as "checked"; the
// summary records that the check leads nowhere, so callers can be told
// the error dies inside this call. A drop under an //arlint:allow
// errflow sentinel is an accepted handoff and sets nothing.
func summarizeErrorDrop(n *CGNode, s *Summary) {
	if s.DropsError {
		return
	}
	sig := n.Func.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return // the function can propagate; not a terminal drop
		}
	}
	info := n.Pkg.Info

	// Collect error vars assigned from calls, with the producing call.
	producers := make(map[types.Object]*ast.CallExpr)
	positions := make(map[types.Object]token.Pos)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if !resultIsError(info, call, i, len(as.Lhs)) {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				producers[obj] = call
				positions[obj] = id.Pos()
			}
		}
		return true
	})
	if len(producers) == 0 {
		return
	}

	// An error var is dropped when all its uses are nil comparisons.
	compared := make(map[types.Object]bool)
	escaped := make(map[types.Object]bool)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if be, ok := m.(*ast.BinaryExpr); ok && (be.Op == token.EQL || be.Op == token.NEQ) {
			// A sanctioned check is `errVar ==/!= nil`; anything else
			// involving the variable descends into the escape scan.
			if id, ok := identVsNil(info, be); ok {
				if obj := info.Uses[id]; obj != nil && producers[obj] != nil {
					compared[obj] = true
					return false
				}
			}
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && producers[obj] != nil {
				escaped[obj] = true // any use outside a nil comparison
			}
		}
		return true
	})
	for obj, call := range producers {
		if compared[obj] && !escaped[obj] {
			if n.Pkg.allowed("errflow", n.Pkg.Fset.Position(positions[obj])) {
				continue
			}
			s.DropsError = true
			s.DropPos = positions[obj]
			s.DropSource = callName(call)
			return
		}
	}
}

// summarizeAlloc records whether the function allocates on every call:
// a make call, a growing append (target not preallocated with explicit
// capacity in the same function), or a static call to a callee that
// does.
//
// A function that touches a sync.Pool (calls Get or Put on one) is a
// pooled allocator: its builtin make/new runs only on the pool-miss
// path, which is exactly the amortization pooling buys, so those do NOT
// mark it as allocating per call. Allocations inherited from callees
// still count — wrapping an allocating helper in a function that also
// happens to use a pool hides nothing.
func summarizeAlloc(sums *Summaries, n *CGNode, s *Summary) {
	if s.Allocates {
		return
	}
	info := n.Pkg.Info
	pooled := usesSyncPool(info, n.Decl.Body)
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		if s.Allocates {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				if pooled {
					return true // amortized pool-miss allocation
				}
				switch id.Name {
				case "make", "new":
					s.Allocates = true
				case "append":
					if len(call.Args) > 0 && !preallocatedBefore(n.Decl, types.ExprString(call.Args[0]), nil) {
						s.Allocates = true
					}
				}
				return true
			}
		}
		if cs := sums.CalleeSummaryDevirt(info, call); cs != nil && cs.Allocates {
			s.Allocates = true
			s.AllocVia = callName(call)
		}
		return true
	})
}

// usesSyncPool reports whether the body calls Get or Put on a
// sync.Pool — the repository's pooled-buffer idiom.
func usesSyncPool(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
			return true
		}
		if t := info.TypeOf(sel.X); t != nil && isSyncPoolType(t) {
			found = true
		}
		return true
	})
	return found
}

// isSyncPoolType reports whether t is sync.Pool or *sync.Pool.
func isSyncPoolType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// summarizeTaint runs the maprange taint flow over the function and
// records which result slots a map-iteration-ordered value reaches
// without passing a sort. Calls to callees with tainted results are
// taint sources too, so the nondeterminism is tracked through wrappers.
func summarizeTaint(sums *Summaries, n *CGNode, s *Summary) {
	sig := n.Func.Type().(*types.Signature)
	if sig.Results().Len() == 0 {
		return
	}
	hasSliceOrMap := false
	for i := 0; i < sig.Results().Len(); i++ {
		switch sig.Results().At(i).Type().Underlying().(type) {
		case *types.Slice, *types.Map:
			hasSliceOrMap = true
		}
	}
	if !hasSliceOrMap {
		return
	}
	tainted := mapOrderTaintedResults(n.Pkg, n.Decl, sums)
	for i, t := range tainted {
		if i < len(s.TaintedResults) && t {
			s.TaintedResults[i] = true
		}
	}
}

// summarizeConcurrency records goroutine spawns and per-parameter
// channel / WaitGroup effects, looking through static calls that
// forward a parameter to a callee with a known effect.
func summarizeConcurrency(sums *Summaries, n *CGNode, s *Summary) {
	info := n.Pkg.Info

	// Parameter objects by position for channel/WaitGroup params.
	sig := n.Func.Type().(*types.Signature)
	isParam := make(map[types.Object]int)
	for i := 0; i < sig.Params().Len(); i++ {
		isParam[sig.Params().At(i)] = i
	}
	objOf := func(e ast.Expr) types.Object {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[e]
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
					return info.Uses[id]
				}
			}
		}
		return nil
	}
	mark := func(set []bool, e ast.Expr) {
		if obj := objOf(e); obj != nil {
			if i, ok := isParam[obj]; ok && i < len(set) {
				set[i] = true
			}
		}
	}

	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			s.SpawnsGoroutine = true
		case *ast.SendStmt:
			mark(s.SendsParams, m.Chan)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				mark(s.DrainsParams, m.X)
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(m.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					mark(s.DrainsParams, m.X)
				}
			}
		case *ast.CallExpr:
			if id, ok := m.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin && len(m.Args) == 1 {
					mark(s.ClosesParams, m.Args[0])
				}
				return true
			}
			// Forwarded effects: passing a parameter to a callee that
			// sends/closes/drains its corresponding parameter (through
			// the candidate join at interface call sites).
			cs := sums.CalleeSummaryDevirt(info, m)
			if cs == nil {
				return true
			}
			if cs.SpawnsGoroutine {
				s.SpawnsGoroutine = true
			}
			for ai, arg := range m.Args {
				pi := cs.ParamIndex(ai)
				if pi < 0 {
					break
				}
				if cs.SendsParams[pi] {
					mark(s.SendsParams, arg)
				}
				if cs.ClosesParams[pi] {
					mark(s.ClosesParams, arg)
				}
				if cs.DrainsParams[pi] {
					mark(s.DrainsParams, arg)
				}
			}
		}
		return true
	})

	// DonesParams is a must-fact: Done on every path to return. Run the
	// CFG guarantee analysis once per WaitGroup parameter.
	for i := 0; i < sig.Params().Len(); i++ {
		if s.DonesParams[i] {
			continue
		}
		p := sig.Params().At(i)
		if !isWaitGroupType(p.Type()) {
			continue
		}
		if donesOnAllPaths(sums, n, p) {
			s.DonesParams[i] = true
		}
	}
}

// donesOnAllPaths reports whether every path from entry to exit of n's
// body calls Done on the WaitGroup object wg — directly, via defer, or
// via a static callee whose summary guarantees Done on the forwarded
// parameter.
func donesOnAllPaths(sums *Summaries, n *CGNode, wg types.Object) bool {
	info := n.Pkg.Info
	g := BuildCFG(n.Decl.Body)

	isDoneNode := func(node ast.Node) bool {
		done := false
		visitNode(node, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if waitGroupDoneCall(info, call, wg) {
				done = true
				return false
			}
			if cs := sums.CalleeSummaryDevirt(info, call); cs != nil {
				for ai, arg := range call.Args {
					if pi := cs.ParamIndex(ai); pi >= 0 && cs.DonesParams[pi] && usesObjectExpr(info, arg, wg) {
						done = true
						return false
					}
				}
			}
			return true
		})
		return done
	}

	// Forward must-analysis: fact = "Done has happened on every path to
	// this point"; join is AND. A defer counts at its registration
	// point: registering `defer wg.Done()` guarantees the Done runs at
	// the exit of every path passing through the DeferStmt node, while
	// paths that skip a conditional defer get no credit — so
	// `if c { defer wg.Done(); return }; work()` covers only the
	// early-return path and the fall-through is still unproven.
	type fact struct{ done bool }
	res := Solve(g, FlowProblem[fact]{
		Entry: fact{false},
		Transfer: func(b *Block, in fact) fact {
			out := in
			for _, node := range b.Nodes {
				if !out.done && isDoneNode(node) {
					out.done = true
				}
			}
			return out
		},
		Join:  func(a, b fact) fact { return fact{a.done && b.done} },
		Equal: func(a, b fact) bool { return a == b },
	})
	return res.Reached[g.Exit.Index] && res.In[g.Exit.Index].done
}

// identVsNil matches a comparison of one identifier against the nil
// literal and returns that identifier.
func identVsNil(info *types.Info, be *ast.BinaryExpr) (*ast.Ident, bool) {
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, isNilConst := info.Uses[id].(*types.Nil)
		return isNilConst
	}
	if id, ok := ast.Unparen(be.X).(*ast.Ident); ok && isNil(be.Y) {
		return id, true
	}
	if id, ok := ast.Unparen(be.Y).(*ast.Ident); ok && isNil(be.X) {
		return id, true
	}
	return nil, false
}

// waitGroupDoneCall reports whether call is wg.Done() on the given
// WaitGroup object.
func waitGroupDoneCall(info *types.Info, call *ast.CallExpr, wg types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	return info.Uses[id] == wg
}

// usesObjectExpr reports whether expr references obj (directly or under
// a & operator).
func usesObjectExpr(info *types.Info, expr ast.Expr, obj types.Object) bool {
	return usesObject(info, expr, obj, nil)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isWaitGroupType reports whether t is sync.WaitGroup or
// *sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// contextArgIndex returns the parameter index of the callee's first
// context.Context parameter (resolved from the call's static type, so
// stdlib and interface callees count), or -1.
func contextArgIndex(info *types.Info, call *ast.CallExpr) int {
	t := info.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// contextDerived collects the set of objects carrying the function's
// context: the parameter itself plus every context-typed variable
// assigned from an expression that uses an already-derived object
// (context.WithCancel, WithTimeout, custom wrappers). One forward scan
// per nesting level is enough for the assignment chains in practice;
// the scan repeats until no new object is found.
func contextDerived(info *types.Info, body *ast.BlockStmt, ctx types.Object) map[types.Object]bool {
	derived := map[types.Object]bool{}
	if ctx == nil {
		return derived
	}
	derived[ctx] = true
	for {
		grew := false
		ast.Inspect(body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			if !usesAnyObject(info, as.Rhs[0], derived) {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || !isContextType(obj.Type()) || derived[obj] {
					continue
				}
				derived[obj] = true
				grew = true
			}
			return true
		})
		if !grew {
			return derived
		}
	}
}

// usesAnyObject reports whether node references any object in objs.
func usesAnyObject(info *types.Info, node ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(node, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return true
	})
	return found
}
