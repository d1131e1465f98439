package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WgBalance verifies that every sync.WaitGroup Add is matched by a
// guaranteed Done: for each `wg.Add(n)` call there must be, in the same
// function, a goroutine (or a plain call path) that calls `wg.Done()`
// on every path to its exit — directly, via `defer wg.Done()`, or via a
// static callee whose summary (summary.go) guarantees Done on the
// forwarded *sync.WaitGroup parameter. An Add whose Done can be skipped
// on some path leaves Wait blocked forever: the parallel power
// iteration's per-iteration barrier (internal/pagerank/parallel.go) and
// the worker fan-out of RankMany (internal/core/many.go) both deadlock
// on exactly this defect.
//
// Checked:
//   - wg.Add with no Done anywhere for the same WaitGroup expression
//   - a spawned goroutine that calls Done on some paths only (an early
//     return before Done) — defer is the sanctioned form
//   - Done hidden in a helper: `go worker(&wg)` is accepted when
//     worker's summary proves Done on all paths of worker
//   - worker-pool lifecycle bounds: a counted spawn loop (`for i := 0;
//     i < workers; i++` starting one goroutine per iteration that sends
//     exactly once on a completion channel, or Add(1)s a WaitGroup) must
//     share its bound with the counted loop that drains those
//     completions; differing bounds block the drain forever or leak the
//     surplus goroutines. Workers that send per-job (the send sits in an
//     inner loop) are exempt — their completion count is not the spawn
//     count.
//
// Not checked:
//   - Add/Done counts (Add(2) with one Done call per goroutine run is
//     beyond static counting); the checker matches acquisition sites to
//     guaranteed-release sites, like lockbalance
//   - WaitGroups that escape: stored in a struct, passed to a call with
//     no summary — the pairing may live anywhere
//
// -fix inserts `defer wg.Done()` at the top of the one goroutine body
// that references the WaitGroup but never calls Done. A body that
// already calls Done on some paths (or hands the WaitGroup to a callee
// that might) gets the diagnostic without the automatic edit: stacking
// a defer on top of a partial Done would over-release on the paths
// that already Done and panic with "sync: negative WaitGroup counter".
var WgBalance = &Analyzer{
	Name:   "wgbalance",
	Doc:    "every wg.Add must be matched by a Done on all paths of the spawned function (callees count)",
	CanFix: true,
	Run:    runWgBalance,
}

func runWgBalance(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkWgBalanceFunc(pass, fn)
			checkPoolLifecycle(pass, fn)
		}
	}
}

// poolLoop is one counted `for i := start; i < bound; i++` loop with the
// pool traffic it carries once per iteration: completion channels its
// goroutines send one value on, channels it receives one value from, and
// WaitGroups it Add(1)s or Done()s. Anything under a nested loop or a
// non-goroutine literal is excluded — those run an unknown number of
// times per iteration, so they carry no per-iteration count.
type poolLoop struct {
	stmt    *ast.ForStmt
	bound   ast.Expr
	spawns  map[types.Object]string // chan → name: one goroutine/iteration, one send each
	drains  map[types.Object]string // chan → name: one receive/iteration
	wgAdds  map[types.Object]string // wg → name: one Add(1)/iteration
	wgDones map[types.Object]string // wg → name: one Done()/iteration
}

// checkPoolLifecycle pairs each counted spawn loop with the counted
// drain loop consuming its completions and reports when the two loops
// render different bound expressions: the pool then produces and
// consumes different counts, so the drain blocks forever (bound too
// large) or goroutines leak blocked on their completion send (bound too
// small). Bounds are compared as rendered expressions — `workers` vs
// `workers` matches, `workers` vs `len(jobs)` does not — which misses
// aliased equal values but never flags a shared spelling.
func checkPoolLifecycle(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	var loops []*poolLoop
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if fs, ok := n.(*ast.ForStmt); ok {
			if bound, ok := countedBound(fs); ok {
				loops = append(loops, classifyPoolLoop(info, fs, bound))
			}
		}
		return true
	})
	for _, s := range loops {
		for _, d := range loops {
			if s == d {
				continue
			}
			sb, db := types.ExprString(s.bound), types.ExprString(d.bound)
			if sb == db {
				continue
			}
			spawnLine := pass.Pkg.Fset.Position(s.stmt.Pos()).Line
			if name, ok := sharedPoolObj(s.spawns, d.drains); ok {
				pass.Reportf(d.stmt.Pos(),
					"pool drain loop runs %s times but the spawn loop on line %d starts %s goroutines, each sending once on %s; the bounds must match or the difference blocks the drain forever / leaks goroutines",
					db, spawnLine, sb, name)
				continue
			}
			if name, ok := sharedPoolObj(s.wgAdds, d.wgDones); ok {
				pass.Reportf(d.stmt.Pos(),
					"this loop calls %s.Done() %s times but the loop on line %d calls %s.Add(1) %s times; the mismatched counts leave Wait blocked forever or panic the WaitGroup",
					name, db, spawnLine, name, sb)
			}
		}
	}
}

// sharedPoolObj returns the name of an object present in both maps,
// picking the lexically-smallest name so diagnostics are deterministic.
func sharedPoolObj(a, b map[types.Object]string) (string, bool) {
	best := ""
	for obj, name := range a {
		if _, ok := b[obj]; ok && (best == "" || name < best) {
			best = name
		}
	}
	return best, best != ""
}

// countedBound matches the canonical counted loop
// `for i := <expr>; i < bound; i++` (single init variable, strict
// less-than, increment-by-one post) and returns its bound expression.
// Anything looser — <=, a decrement, a mutated index — has no obvious
// iteration count and is left alone.
func countedBound(fs *ast.ForStmt) (ast.Expr, bool) {
	init, ok := fs.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
		return nil, false
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	cond, ok := fs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return nil, false
	}
	cx, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || cx.Name != iv.Name {
		return nil, false
	}
	post, ok := fs.Post.(*ast.IncDecStmt)
	if !ok || post.Tok != token.INC {
		return nil, false
	}
	px, ok := ast.Unparen(post.X).(*ast.Ident)
	if !ok || px.Name != iv.Name {
		return nil, false
	}
	return cond.Y, true
}

// classifyPoolLoop collects the per-iteration pool traffic of one
// counted loop. Nested loops and plain function literals are cut off
// (their multiplicity is unknown); goroutine literals are entered once
// to look for top-level completion sends.
func classifyPoolLoop(info *types.Info, fs *ast.ForStmt, bound ast.Expr) *poolLoop {
	p := &poolLoop{
		stmt: fs, bound: bound,
		spawns:  make(map[types.Object]string),
		drains:  make(map[types.Object]string),
		wgAdds:  make(map[types.Object]string),
		wgDones: make(map[types.Object]string),
	}
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				// One goroutine per iteration; count its sends only at
				// the body's own loop-free level — a send inside the
				// worker's job loop fires per job, not per spawn.
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
						return false
					case *ast.SendStmt:
						if obj, name, ok := chanIdent(info, m.Chan); ok {
							p.spawns[obj] = name
						}
					}
					return true
				})
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj, name, ok := chanIdent(info, n.X); ok {
					p.drains[obj] = name
				}
			}
		case *ast.CallExpr:
			if obj, name, ok := wgMethodCall(info, n, "Add"); ok && isIntLitOne(n.Args) {
				p.wgAdds[obj] = name
			}
			if obj, name, ok := wgMethodCall(info, n, "Done"); ok {
				p.wgDones[obj] = name
			}
		}
		return true
	})
	return p
}

// chanIdent resolves a plain identifier of channel type to its object.
func chanIdent(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return nil, "", false
	}
	if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
		return nil, "", false
	}
	return obj, id.Name, true
}

// isIntLitOne reports whether args is exactly the literal 1.
func isIntLitOne(args []ast.Expr) bool {
	if len(args) != 1 {
		return false
	}
	lit, ok := ast.Unparen(args[0]).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "1"
}

// wgUse aggregates everything one function does with one WaitGroup
// object.
type wgUse struct {
	obj     types.Object
	expr    string // rendered receiver for diagnostics
	adds    []*ast.CallExpr
	escaped bool
	// goroutines referencing the WaitGroup, with whether their body
	// guarantees Done.
	spawns []wgSpawn
	// a non-goroutine guaranteed Done in the declaring function itself:
	// defer wg.Done() or a plain Done call (sequential Add/Done pairing).
	localDone bool
}

type wgSpawn struct {
	stmt       *ast.GoStmt
	lit        *ast.FuncLit // nil when the goroutine runs a named function
	guaranteed bool
	mentions   bool // body references the WaitGroup at all
	// mayDone: the body contains a Done for this WaitGroup on at least
	// one path (or passes it to a call that could Done it) — the defer
	// insertion fix must not stack another Done on top.
	mayDone bool
}

func checkWgBalanceFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	uses := make(map[types.Object]*wgUse)
	useOf := func(obj types.Object, expr string) *wgUse {
		u := uses[obj]
		if u == nil {
			u = &wgUse{obj: obj, expr: expr}
			uses[obj] = u
		}
		return u
	}

	// resolveWG maps an expression to a WaitGroup-typed object: a plain
	// identifier or &identifier. Field receivers (s.wg) are treated as
	// escaped state — the pairing may live in another method.
	resolveWG := func(e ast.Expr) (types.Object, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			if obj != nil && isWaitGroupType(obj.Type()) {
				return obj, true
			}
		case *ast.UnaryExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && e.Op == token.AND {
				obj := info.Uses[id]
				if obj != nil && isWaitGroupType(obj.Type()) {
					return obj, true
				}
			}
		}
		return nil, false
	}

	// Pass 1: collect Adds, local Dones, escapes and goroutine spawns.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Classify below; don't descend — the body belongs to the
			// spawn, not to the declaring function's local Dones.
			classifyWgSpawn(pass, fn, n, uses, useOf, resolveWG)
			return false
		case *ast.DeferStmt:
			if obj, expr, ok := wgMethodCall(info, n.Call, "Done"); ok {
				useOf(obj, expr).localDone = true
				return false
			}
		case *ast.CallExpr:
			if obj, expr, ok := wgMethodCall(info, n, "Add"); ok {
				u := useOf(obj, expr)
				u.adds = append(u.adds, n)
				return true
			}
			if obj, expr, ok := wgMethodCall(info, n, "Done"); ok {
				useOf(obj, expr).localDone = true
				return true
			}
			if obj, expr, ok := wgMethodCall(info, n, "Wait"); ok {
				useOf(obj, expr) // a Wait alone creates the use record
				return true
			}
			// A WaitGroup argument: accepted when the callee's summary
			// guarantees Done on that parameter, an escape otherwise.
			cs := pass.Summaries.CalleeSummaryDevirt(info, n)
			for ai, arg := range n.Args {
				obj, ok := resolveWG(arg)
				if !ok {
					continue
				}
				u := useOf(obj, types.ExprString(ast.Unparen(arg)))
				if pi := cs.ParamIndex(ai); pi >= 0 && cs.DonesParams[pi] {
					u.localDone = true
				} else {
					u.escaped = true
				}
			}
		case *ast.AssignStmt:
			// Assigning the WaitGroup (or its address) anywhere is an
			// escape: aliasing defeats the expression matching.
			for _, rhs := range n.Rhs {
				if obj, ok := resolveWG(rhs); ok {
					useOf(obj, "").escaped = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj, ok := resolveWG(res); ok {
					useOf(obj, "").escaped = true
				}
			}
		}
		return true
	})

	for _, u := range uses {
		if len(u.adds) == 0 || u.escaped {
			continue
		}
		guaranteed := u.localDone
		var unguarded *wgSpawn
		for i := range u.spawns {
			sp := &u.spawns[i]
			if sp.guaranteed {
				guaranteed = true
			} else if sp.mentions && unguarded == nil {
				unguarded = sp
			}
		}
		if guaranteed {
			continue
		}
		if unguarded != nil {
			var fix *SuggestedFix
			if unguarded.lit != nil && !unguarded.mayDone {
				fix = &SuggestedFix{
					Message: "defer wg.Done() at the top of the goroutine",
					Edits: []TextEdit{{
						Pos:     unguarded.lit.Body.Lbrace + 1,
						End:     unguarded.lit.Body.Lbrace + 1,
						NewText: "\ndefer " + u.expr + ".Done()\n",
					}},
				}
			}
			pass.ReportfFix(unguarded.stmt.Pos(), fix,
				"goroutine spawned here may exit without calling %s.Done() on some path; defer %s.Done() so the %s.Add in %s is always matched",
				u.expr, u.expr, u.expr, fn.Name.Name)
			continue
		}
		pass.Reportf(u.adds[0].Pos(),
			"%s.Add in %s is matched by no %s.Done on any path (no defer, no guaranteed call, no Done-guaranteeing callee); Wait will block forever",
			u.expr, fn.Name.Name, u.expr)
	}
}

// classifyWgSpawn records what a go statement does with each WaitGroup
// it references: whether its body guarantees Done (defer, all-paths
// call, or a Done-guaranteeing callee per the summaries).
func classifyWgSpawn(pass *Pass, fn *ast.FuncDecl, g *ast.GoStmt,
	uses map[types.Object]*wgUse, useOf func(types.Object, string) *wgUse,
	resolveWG func(ast.Expr) (types.Object, bool)) {
	info := pass.Pkg.Info

	// go helper(&wg, ...): guaranteed when helper's summary Dones the
	// corresponding parameter.
	if lit, ok := g.Call.Fun.(*ast.FuncLit); !ok {
		cs := pass.Summaries.CalleeSummaryDevirt(info, g.Call)
		for ai, arg := range g.Call.Args {
			obj, ok := resolveWG(arg)
			if !ok {
				continue
			}
			u := useOf(obj, types.ExprString(ast.Unparen(arg)))
			sp := wgSpawn{stmt: g, mentions: true, mayDone: true}
			if pi := cs.ParamIndex(ai); pi >= 0 && cs.DonesParams[pi] {
				sp.guaranteed = true
			} else if cs == nil {
				u.escaped = true // unknown callee took the WaitGroup
			}
			u.spawns = append(u.spawns, sp)
		}
		return
	} else {
		// go func(...){...}(args): find the WaitGroups the body touches
		// (captured or passed) and check the body's guarantee.
		mentioned := make(map[types.Object]string)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj != nil && isWaitGroupType(obj.Type()) {
				if _, seen := mentioned[obj]; !seen {
					mentioned[obj] = id.Name
				}
			}
			return true
		})
		for obj, name := range mentioned {
			u := useOf(obj, name)
			u.spawns = append(u.spawns, wgSpawn{
				stmt:       g,
				lit:        lit,
				mentions:   true,
				mayDone:    bodyMayCallDone(pass, lit.Body, obj),
				guaranteed: goroutineGuaranteesDone(pass.Pkg.Info, pass.Summaries, lit, obj),
			})
		}
	}
}

// goroutineGuaranteesDone reports whether the goroutine body calls
// Done on obj on every path to its exit, decided by a must-analysis
// over the body's CFG. A call to a static callee whose summary Dones
// the forwarded parameter counts as a Done. A defer counts at its
// registration point — registering `defer wg.Done()` guarantees the
// Done at the exit of every path through the DeferStmt, while paths
// that skip a conditional defer get no credit, so
// `if c { defer wg.Done(); return }; work()` leaves the fall-through
// path unproven.
func goroutineGuaranteesDone(info *types.Info, sums *Summaries, lit *ast.FuncLit, obj types.Object) bool {
	g := BuildCFG(lit.Body)

	isDone := func(node ast.Node) bool {
		found := false
		visitNode(node, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if o, _, ok := wgMethodCall(info, call, "Done"); ok && o == obj {
				found = true
				return false
			}
			if cs := sums.CalleeSummaryDevirt(info, call); cs != nil {
				for ai, arg := range call.Args {
					if pi := cs.ParamIndex(ai); pi >= 0 && cs.DonesParams[pi] && usesObject(info, arg, obj, nil) {
						found = true
						return false
					}
				}
			}
			return true
		})
		return found
	}

	type fact struct{ done bool }
	res := Solve(g, FlowProblem[fact]{
		Entry: fact{false},
		Transfer: func(b *Block, in fact) fact {
			out := in
			for _, node := range b.Nodes {
				if !out.done && isDone(node) {
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

// bodyMayCallDone reports whether the goroutine body might call Done
// on obj on at least one path: a direct obj.Done() anywhere in the
// body (defers and nested literals included), or obj handed to any
// call — a callee can Done a forwarded WaitGroup even when its summary
// cannot prove it on all paths. Gates the -fix defer insertion: a body
// that may already Done must not get a second Done stacked on top, or
// the paths with both over-release and panic the WaitGroup.
func bodyMayCallDone(pass *Pass, body ast.Node, obj types.Object) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(body, func(m ast.Node) bool {
		if found {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if o, _, ok := wgMethodCall(info, call, "Done"); ok && o == obj {
			found = true
			return false
		}
		for _, arg := range call.Args {
			if usesObject(info, arg, obj, nil) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// wgMethodCall matches wg.<method>() on a WaitGroup-typed receiver that
// is a plain identifier, returning the receiver object and its rendered
// expression.
func wgMethodCall(info *types.Info, call *ast.CallExpr, method string) (types.Object, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, "", false
	}
	obj := info.Uses[sel.Sel]
	if s, ok := info.Selections[sel]; ok {
		obj = s.Obj()
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	recv := info.Uses[id]
	if recv == nil || !isWaitGroupType(recv.Type()) {
		return nil, "", false
	}
	return recv, id.Name, true
}
