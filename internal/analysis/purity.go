package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file computes the purity lattice point of every summarized
// function. The ranking kernels' correctness argument — a local sweep
// may stand in for the global iteration only when per-node score
// evaluations are freely schedulable — rests on the sweeps being
// reorderable, which the comments used to assert ("pure slice
// arithmetic") and the summaries now prove.
//
// The lattice has three points, ordered Pure ⊏ Output ⊏ Impure:
//
//	Pure    no observable side effect at all: no writes outside the
//	        function's own frame and freshly-allocated memory, no
//	        channel operations, no goroutines, no I/O, only pure
//	        callees. Calling it twice with the same arguments is
//	        indistinguishable from calling it once.
//	Output  side effects confined to memory reachable from the
//	        function's own parameters or receiver — the output-buffer
//	        shape of every kernel sweep (`next[v] = …` through a slice
//	        parameter). Two calls writing DISJOINT ranges commute; this
//	        is exactly the schedulability the parallel sweeps rely on.
//	Impure  anything else: package-level writes, channel operations,
//	        goroutine spawns, locks, panics, I/O, calls to unknown
//	        code.
//
// Purity is a may-analysis computed with the same within-SCC fixpoint
// as the other summary facts: every function starts at the optimistic
// bottom (Pure) and monotonically ascends as its body and the current
// summaries of its callees are examined, so a recursive pair of pure
// helpers converges at Pure instead of poisoning each other. At
// interface call sites the candidate edges (callgraph.go) supply the
// join of every known implementation; a dynamic call with no candidates
// goes straight to Impure.

// Purity is a point on the purity lattice.
type Purity uint8

const (
	// PurityPure: no observable side effects.
	PurityPure Purity = iota
	// PurityOutput: writes confined to parameter-reachable memory.
	PurityOutput
	// PurityImpure: unconstrained effects.
	PurityImpure
)

// String renders the lattice point as it appears in -callgraph=dot.
func (p Purity) String() string {
	switch p {
	case PurityPure:
		return "pure"
	case PurityOutput:
		return "out-writes"
	default:
		return "impure"
	}
}

// purePackages whitelists out-of-module packages whose exported
// functions are side-effect free (value in, value out). Allocation is
// tracked separately by Summary.Allocates, so allocating-but-pure
// helpers still qualify.
var purePackages = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// pureExternal reports whether an out-of-module callee is whitelisted
// as side-effect free.
func pureExternal(fn *types.Func) bool {
	pkg := fn.Pkg()
	return pkg != nil && purePackages[pkg.Path()]
}

// isPackageLevelVar reports whether obj is a package-scoped variable —
// the one kind of storage a write to which is observable by everyone.
func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	pkg := v.Pkg()
	return pkg != nil && v.Parent() == pkg.Scope()
}

// writeRoot walks an assignment target down to the identifier whose
// storage (or reachable memory) the write lands in, reporting whether
// the write stays within the base's OWN storage: v.f.g = x writes v's
// own bytes, while v.p.f = x (p a pointer field), v[i] = x (v a slice)
// or *v = x land in memory merely reachable from v. Value-array
// indexing stays in storage; slice and map indexing leave it.
func writeRoot(info *types.Info, expr ast.Expr) (base *ast.Ident, inStorage bool) {
	inStorage = true
	for {
		expr = ast.Unparen(expr)
		switch e := expr.(type) {
		case *ast.Ident:
			return e, inStorage
		case *ast.SelectorExpr:
			if t := info.TypeOf(e.X); t != nil {
				if _, ptr := t.Underlying().(*types.Pointer); ptr {
					inStorage = false
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			if t := info.TypeOf(e.X); t != nil {
				if _, arr := t.Underlying().(*types.Array); !arr {
					inStorage = false
				}
			}
			expr = e.X
		case *ast.StarExpr:
			inStorage = false
			expr = e.X
		default:
			return nil, false
		}
	}
}

// locallyOwned computes the local variables of fd whose memory the
// function itself created: every value the variable is ever assigned is
// a fresh allocation (make, new, a composite literal, or an append to
// the variable itself), and the variable's address is never taken.
// Writes through such a variable are invisible to the caller and keep
// the function pure — par.Split filling a bounds slice it just made is
// Pure (and separately Allocates), not Output.
func locallyOwned(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	disqualified := make(map[types.Object]bool)
	lookup := func(id *ast.Ident) types.Object {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	disqualify := func(obj types.Object) {
		if obj != nil {
			disqualified[obj] = true
			delete(owned, obj)
		}
	}
	// owningRHS reports whether e evaluates to memory fresh at this
	// assignment: nothing the caller can alias.
	owningRHS := func(obj types.Object, e ast.Expr) bool {
		e = ast.Unparen(e)
		switch e := e.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
				return lit
			}
		case *ast.CallExpr:
			id, ok := e.Fun.(*ast.Ident)
			if !ok {
				return false
			}
			if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
				return false
			}
			switch id.Name {
			case "make", "new":
				return true
			case "append":
				// append(x, …) assigned back to x keeps x owned.
				if len(e.Args) > 0 {
					if aid, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok {
						return lookup(aid) == obj
					}
				}
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value assignment from one call: provenance
				// unknown, nothing on the left stays owned.
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						disqualify(lookup(id))
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := lookup(id)
				if obj == nil {
					continue
				}
				if owningRHS(obj, n.Rhs[i]) {
					if !disqualified[obj] {
						owned[obj] = true
					}
				} else {
					disqualify(obj)
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				obj := info.Defs[id]
				if obj == nil || id.Name == "_" {
					continue
				}
				if i < len(n.Values) && !owningRHS(obj, n.Values[i]) {
					disqualify(obj)
				} else if i < len(n.Values) && !disqualified[obj] {
					owned[obj] = true
				}
				// A bare `var x []T` owns its (nil) zero value; a later
				// append decides whether it stays owned.
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				// &x hands out a pointer that could later smuggle
				// foreign memory into x; conservative disqualify.
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					disqualify(lookup(id))
				}
			}
		}
		return true
	})
	return owned
}

// summarizePurity classifies n on the purity lattice from its body and
// the current summaries of its callees, ascending s.Purity and the
// per-parameter write sets monotonically (the fixpoint driver in
// ComputeSummaries re-runs it until nothing changes).
func summarizePurity(sums *Summaries, n *CGNode, s *Summary) {
	if s.Purity == PurityImpure {
		return // already at top
	}
	info := n.Pkg.Info
	sig := n.Func.Type().(*types.Signature)
	body := n.Decl.Body

	paramOf := make(map[types.Object]int, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		paramOf[sig.Params().At(i)] = i
	}
	var recvObj types.Object
	if r := sig.Recv(); r != nil {
		recvObj = r
	}
	owned := locallyOwned(info, body)

	lookup := func(id *ast.Ident) types.Object {
		if obj := info.Uses[id]; obj != nil {
			return obj
		}
		return info.Defs[id]
	}
	raise := func(p Purity, cause string) {
		if p > s.Purity {
			s.Purity = p
			s.PurityCause = cause
		}
	}

	// classifyReach records a write landing in memory reachable from
	// base: fresh local memory is silent, parameters and the receiver
	// ascend to Output and set the per-parameter write bit, globals go
	// to Impure, and aliases of unknown provenance ascend to Output
	// with the escape bit (callers can't attribute the write to any
	// argument they passed).
	classifyReach := func(base *ast.Ident, cause string) {
		if base == nil {
			s.WritesEscaped = true
			raise(PurityOutput, cause)
			return
		}
		obj := lookup(base)
		switch {
		case obj == nil:
			s.WritesEscaped = true
			raise(PurityOutput, cause)
		case isPackageLevelVar(obj):
			raise(PurityImpure, cause+" (package-level "+base.Name+")")
		case owned[obj]:
			// function-created memory: invisible to the caller
		case obj == recvObj:
			s.WritesRecv = true
			raise(PurityOutput, cause)
		default:
			if i, isP := paramOf[obj]; isP {
				if i < len(s.WritesParams) {
					s.WritesParams[i] = true
				}
				raise(PurityOutput, cause)
				return
			}
			s.WritesEscaped = true
			raise(PurityOutput, cause)
		}
	}

	// classifyTarget handles an assignment or ++/-- target.
	classifyTarget := func(expr ast.Expr) {
		expr = ast.Unparen(expr)
		if id, ok := expr.(*ast.Ident); ok {
			if id.Name == "_" {
				return
			}
			if obj := lookup(id); obj != nil && isPackageLevelVar(obj) {
				raise(PurityImpure, "writes package-level variable "+id.Name)
			}
			return // plain local (or named result) assignment
		}
		base, inStorage := writeRoot(info, expr)
		if base != nil {
			if obj := lookup(base); obj != nil && isPackageLevelVar(obj) {
				raise(PurityImpure, "writes through package-level "+base.Name)
				return
			}
			if inStorage {
				// The write lands in a local's (or a value parameter
				// copy's) own storage — a frame-local effect.
				return
			}
		}
		classifyReach(base, "writes through "+types.ExprString(expr))
	}

	// classifyAlias handles memory written THROUGH an expression the
	// function hands to someone else: the first argument of append /
	// copy / delete / clear, or an argument bound to a callee parameter
	// the callee writes through. Passing a value type hands over a
	// copy, which the callee may scribble on freely.
	pointerLike := func(t types.Type) bool {
		switch t.Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
			return true
		}
		return false
	}
	classifyAlias := func(expr ast.Expr, cause string) {
		expr = ast.Unparen(expr)
		if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
			// &x: the callee writes x's storage. A local's storage is
			// frame-local; classifyReach sorts out params and globals.
			if id, ok := ast.Unparen(u.X).(*ast.Ident); ok {
				obj := lookup(id)
				switch {
				case obj == nil:
					s.WritesEscaped = true
					raise(PurityOutput, cause)
				case isPackageLevelVar(obj):
					raise(PurityImpure, cause+" (package-level "+id.Name+")")
				case obj == recvObj:
					s.WritesRecv = true
					raise(PurityOutput, cause)
				default:
					if i, isP := paramOf[obj]; isP {
						if i < len(s.WritesParams) {
							s.WritesParams[i] = true
						}
						raise(PurityOutput, cause)
					}
					// else: a local's own storage — frame-local.
				}
				return
			}
			expr = u.X
		}
		if t := info.TypeOf(expr); t != nil && !pointerLike(t) {
			return // passed by value: the callee writes a copy
		}
		base, _ := writeRoot(info, expr)
		classifyReach(base, cause)
	}

	// applyCallee folds a callee summary (static, or the join of the
	// interface candidates) into this function at one call site.
	applyCallee := func(cs *Summary, call *ast.CallExpr, name string) {
		if cs.Purity == PurityImpure {
			cause := "calls impure " + name
			if cs.PurityCause != "" {
				cause += " [" + cs.PurityCause + "]"
			}
			raise(PurityImpure, cause)
			return
		}
		for ai, arg := range call.Args {
			pi := cs.ParamIndex(ai)
			if pi < 0 || pi >= len(cs.WritesParams) || !cs.WritesParams[pi] {
				continue
			}
			classifyAlias(arg, "passes memory "+name+" writes through")
		}
		if cs.WritesRecv {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				classifyAlias(sel.X, "passes receiver "+name+" writes through")
			} else {
				s.WritesEscaped = true
				raise(PurityOutput, "calls "+name+" which writes its receiver")
			}
		}
		if cs.WritesEscaped {
			s.WritesEscaped = true
			raise(PurityOutput, "calls "+name+" which writes unattributed memory")
		}
	}

	handleCall := func(call *ast.CallExpr) {
		fun := ast.Unparen(call.Fun)
		if _, isLit := fun.(*ast.FuncLit); isLit {
			return // immediately-invoked literal: its body is scanned here anyway
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return // conversion
		}
		if id, ok := fun.(*ast.Ident); ok {
			if _, builtin := info.Uses[id].(*types.Builtin); builtin {
				switch id.Name {
				case "append", "copy", "delete", "clear":
					if len(call.Args) > 0 {
						classifyAlias(call.Args[0], id.Name+" writes through "+types.ExprString(call.Args[0]))
					}
				case "close":
					raise(PurityImpure, "closes a channel")
				case "panic":
					raise(PurityImpure, "panics")
				case "print", "println", "recover":
					raise(PurityImpure, "calls "+id.Name)
				}
				return
			}
		}
		if callee := StaticCallee(info, call); callee != nil {
			if cs := sums.Of(callee); cs != nil {
				applyCallee(cs, call, callee.Name())
				return
			}
			if pureExternal(callee) {
				return
			}
			raise(PurityImpure, "calls out-of-module "+callee.FullName())
			return
		}
		if cands := sums.Graph.CandidatesOf(info, call); len(cands) > 0 {
			for _, c := range cands {
				if cs := sums.byFunc[c.Func]; cs != nil {
					applyCallee(cs, call, c.String())
				}
			}
			return
		}
		raise(PurityImpure, "dynamic call to "+types.ExprString(call.Fun)+" with no known implementations")
	}

	ast.Inspect(body, func(m ast.Node) bool {
		if s.Purity == PurityImpure {
			return false
		}
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				classifyTarget(lhs)
			}
		case *ast.IncDecStmt:
			classifyTarget(m.X)
		case *ast.SendStmt:
			raise(PurityImpure, "sends on a channel")
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				raise(PurityImpure, "receives from a channel")
			}
		case *ast.SelectStmt:
			raise(PurityImpure, "selects on channels")
		case *ast.GoStmt:
			raise(PurityImpure, "spawns a goroutine")
		case *ast.RangeStmt:
			if t := info.TypeOf(m.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					raise(PurityImpure, "ranges over a channel")
				}
			}
		case *ast.CallExpr:
			handleCall(m)
		}
		return true
	})
}
