package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file builds the package-level static call graph of the analyzed
// packages: one node per declared function or method, one edge per call
// site whose callee resolves statically. It is the substrate of the
// interprocedural checkers — summaries (summary.go) are computed
// bottom-up over its strongly-connected components, so a checker asking
// "does this callee swallow an error / allocate / call Done?" gets an
// answer that already accounts for the callee's own callees.
//
// Resolution rules, deliberately conservative (a missed edge weakens a
// summary toward "unknown", it never invents behavior):
//
//   - plain calls f(...) and qualified cross-package calls pkg.F(...)
//     resolve through go/types object use;
//   - method calls x.M(...) resolve through go/types selections when the
//     receiver's static type is concrete — the types actually used in
//     this repository. Calls through interface values are not resolved
//     (any implementation could run) and contribute no edge;
//   - calls inside nested function literals are attributed to the
//     enclosing declared function: the literal runs on the declaring
//     function's behalf (worker goroutines, sort closures), so its
//     effects belong to that function's summary;
//   - calls to functions outside the analyzed packages (stdlib, other
//     modules) contribute no edge and are summarized as effect-free.

// CGNode is one declared function or method in the call graph.
type CGNode struct {
	// Func is the type-checker's object for the function.
	Func *types.Func
	// Decl is the syntax, always with a non-nil body.
	Decl *ast.FuncDecl
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Calls are the distinct static callees within the analyzed set, in
	// first-call-site order.
	Calls []*CGNode
	// Candidates are the distinct known-implementation callees of the
	// node's interface-method call sites (devirtualization): for each
	// dynamic call x.M() with x of interface type I, every analyzed
	// concrete type implementing I contributes its M. Candidate edges
	// participate in the SCC condensation — a summary fact flowing
	// through an interface seam still needs bottom-up ordering — but
	// are kept apart from Calls so checkers can distinguish "will call"
	// from "may call one of".
	Candidates []*CGNode
	// Callers are the distinct nodes with an edge into this one.
	Callers []*CGNode
	// SCC is the index of the node's strongly-connected component in
	// CallGraph.SCCs.
	SCC int
}

// String renders the node as pkgname.Func or pkgname.(Recv).Method.
func (n *CGNode) String() string {
	name := n.Func.Name()
	if recv := n.Func.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return n.Pkg.Name + "." + name
}

// CallGraph is the static call graph of a set of analyzed packages.
type CallGraph struct {
	// Nodes holds every declared function with a body, in source order
	// (file name, then position).
	Nodes []*CGNode
	// SCCs is the condensation in bottom-up order: every callee of a
	// node in SCCs[i] lies in SCCs[j] with j <= i. Summaries iterate
	// this slice forward. Candidate (devirtualized) edges count as
	// edges here.
	SCCs [][]*CGNode

	byFunc map[*types.Func]*CGNode
	// ifaceImpls maps an interface method object to the analyzed
	// concrete methods implementing it, in deterministic (package,
	// type-name) order.
	ifaceImpls map[*types.Func][]*CGNode
}

// NodeOf returns the node for fn, or nil when fn is not an analyzed
// declared function (stdlib, interface method, func literal).
func (cg *CallGraph) NodeOf(fn *types.Func) *CGNode {
	if cg == nil || fn == nil {
		return nil
	}
	return cg.byFunc[fn.Origin()]
}

// BuildCallGraph constructs the call graph of pkgs and its SCC
// condensation.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{byFunc: make(map[*types.Func]*CGNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Func: fn, Decl: fd, Pkg: pkg}
				cg.Nodes = append(cg.Nodes, node)
				cg.byFunc[fn] = node
			}
		}
	}
	sort.Slice(cg.Nodes, func(i, j int) bool {
		a := cg.Nodes[i].Pkg.Fset.Position(cg.Nodes[i].Decl.Pos())
		b := cg.Nodes[j].Pkg.Fset.Position(cg.Nodes[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})

	for _, node := range cg.Nodes {
		seen := make(map[*CGNode]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(node.Pkg.Info, call)
			if callee == nil {
				return true
			}
			target := cg.NodeOf(callee)
			if target == nil || seen[target] {
				return true
			}
			seen[target] = true
			node.Calls = append(node.Calls, target)
			target.Callers = append(target.Callers, node)
			return true
		})
	}

	cg.buildDevirt(pkgs)
	cg.condense()
	return cg
}

// buildDevirt computes the known-implementation table and the candidate
// edges. For every named interface declared in the analyzed packages
// and every named concrete type in the same set, types.Implements
// decides (for T and *T) whether the type satisfies the interface; each
// satisfied interface method then maps to the concrete method the
// method set selects. The enumeration is conservative in the only
// direction that matters: a type outside the analyzed set contributes
// no candidate, so consumers must keep treating a candidate list as
// "at least these" — CalleeSummaryDevirt documents why the join is
// still sound for the checkers that use it.
func (cg *CallGraph) buildDevirt(pkgs []*Package) {
	cg.ifaceImpls = make(map[*types.Func][]*CGNode)

	var ifaces []*types.Interface
	var concretes []types.Type
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue // generic types would need per-instantiation work
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			} else {
				concretes = append(concretes, named)
			}
		}
	}

	seen := make(map[*types.Func]map[*CGNode]bool)
	for _, iface := range ifaces {
		for _, T := range concretes {
			impl := T
			if !types.Implements(T, iface) {
				if ptr := types.NewPointer(T); types.Implements(ptr, iface) {
					impl = ptr
				} else {
					continue
				}
			}
			ms := types.NewMethodSet(impl)
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				sel := ms.Lookup(im.Pkg(), im.Name())
				if sel == nil {
					continue
				}
				f, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				node := cg.byFunc[f.Origin()]
				if node == nil {
					continue // implementation without an analyzed body
				}
				key := im.Origin()
				if seen[key] == nil {
					seen[key] = make(map[*CGNode]bool)
				}
				if !seen[key][node] {
					seen[key][node] = true
					cg.ifaceImpls[key] = append(cg.ifaceImpls[key], node)
				}
			}
		}
	}

	// Candidate edges: one per (caller, implementation) over the
	// interface-method call sites of each body.
	for _, node := range cg.Nodes {
		dedup := make(map[*CGNode]bool)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			m := InterfaceCallee(node.Pkg.Info, call)
			if m == nil {
				return true
			}
			for _, target := range cg.ifaceImpls[m] {
				if !dedup[target] {
					dedup[target] = true
					node.Candidates = append(node.Candidates, target)
				}
			}
			return true
		})
	}
}

// InterfaceCallee resolves a dynamic method call x.M() through an
// interface-typed receiver to the interface's method object, or nil
// when the call is not an interface-method call. This is the key the
// devirtualizer's candidate table is indexed by.
func InterfaceCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	f, ok := selection.Obj().(*types.Func)
	if !ok || !types.IsInterface(selection.Recv()) {
		return nil
	}
	return f.Origin()
}

// CandidatesOf returns the known implementations of the interface
// method called by call, or nil for static and unresolvable calls.
func (cg *CallGraph) CandidatesOf(info *types.Info, call *ast.CallExpr) []*CGNode {
	if cg == nil {
		return nil
	}
	m := InterfaceCallee(info, call)
	if m == nil {
		return nil
	}
	return cg.ifaceImpls[m]
}

// StaticCallee resolves the callee of a call expression to a declared
// function object, or nil when the callee is dynamic: a func value, a
// method call through an interface, a builtin, or a conversion.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f.Origin()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method call x.M(): resolvable only when the receiver's
			// static type is concrete.
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			return f.Origin()
		}
		// Qualified call pkg.F().
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f.Origin()
		}
	}
	return nil
}

// condense runs Tarjan's algorithm and records the strongly-connected
// components in completion order, which for Tarjan is bottom-up: every
// SCC reachable from component i is completed — and therefore listed —
// before i.
func (cg *CallGraph) condense() {
	const unvisited = -1
	index := make(map[*CGNode]int, len(cg.Nodes))
	low := make(map[*CGNode]int, len(cg.Nodes))
	onStack := make(map[*CGNode]bool, len(cg.Nodes))
	for _, n := range cg.Nodes {
		index[n] = unvisited
	}
	var stack []*CGNode
	next := 0

	var strongConnect func(v *CGNode)
	strongConnect = func(v *CGNode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, edges := range [2][]*CGNode{v.Calls, v.Candidates} {
			for _, w := range edges {
				if index[w] == unvisited {
					strongConnect(w)
					if low[w] < low[v] {
						low[v] = low[w]
					}
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
		}
		if low[v] == index[v] {
			var scc []*CGNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				w.SCC = len(cg.SCCs)
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			cg.SCCs = append(cg.SCCs, scc)
		}
	}
	for _, n := range cg.Nodes {
		if index[n] == unvisited {
			strongConnect(n)
		}
	}
}

// WriteDot renders the call graph in Graphviz dot form (the driver's
// -callgraph=dot debug mode). When sums is non-nil, each node's label
// carries its non-trivial summary bits in brackets, so the effect a
// checker sees through a call is visible in the drawing.
func (cg *CallGraph) WriteDot(w io.Writer, sums *Summaries) error {
	if _, err := fmt.Fprintln(w, "digraph callgraph {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontsize=10];")
	idOf := make(map[*CGNode]int, len(cg.Nodes))
	for i, n := range cg.Nodes {
		idOf[n] = i
	}
	id := func(n *CGNode) string { return fmt.Sprintf("n%d", idOf[n]) }
	for _, n := range cg.Nodes {
		// Dot's own escape for a label line break is the two-character
		// sequence \n, so the label is quoted by hand rather than with
		// %q (which would escape the backslash).
		label := strings.ReplaceAll(n.String(), `"`, `\"`)
		if sums != nil {
			if bits := sums.Of(n.Func).bits(); bits != "" {
				label += `\n[` + bits + `]`
			}
		}
		attrs := fmt.Sprintf(`label="%s"`, label)
		if len(cg.SCCs[n.SCC]) > 1 {
			attrs += fmt.Sprintf(", color=red, xlabel=\"scc%d\"", n.SCC)
		}
		fmt.Fprintf(w, "  %s [%s];\n", id(n), attrs)
	}
	for _, n := range cg.Nodes {
		static := make(map[*CGNode]bool, len(n.Calls))
		for _, c := range n.Calls {
			static[c] = true
			fmt.Fprintf(w, "  %s -> %s;\n", id(n), id(c))
		}
		// Candidate (devirtualized) edges render dashed; a target also
		// called statically keeps only its solid edge.
		for _, c := range n.Candidates {
			if !static[c] {
				fmt.Fprintf(w, "  %s -> %s [style=dashed];\n", id(n), id(c))
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// bits renders a summary's non-trivial flags for the dot label.
func (s *Summary) bits() string {
	if s == nil {
		return ""
	}
	var out []string
	// The purity lattice point leads: Impure is the unmarked default,
	// the two provable levels are worth showing.
	switch s.Purity {
	case PurityPure:
		out = append(out, "pure")
	case PurityOutput:
		out = append(out, "out-writes")
	}
	if s.DropsError {
		out = append(out, "drops-err")
	}
	if s.Allocates {
		out = append(out, "alloc")
	}
	for i, t := range s.TaintedResults {
		if t {
			out = append(out, fmt.Sprintf("map-order(res%d)", i))
		}
	}
	for i, d := range s.DonesParams {
		if d {
			out = append(out, fmt.Sprintf("done(p%d)", i))
		}
	}
	for i, c := range s.ClosesParams {
		if c {
			out = append(out, fmt.Sprintf("close(p%d)", i))
		}
	}
	for i, r := range s.DrainsParams {
		if r {
			out = append(out, fmt.Sprintf("drain(p%d)", i))
		}
	}
	if s.CtxParam >= 0 {
		out = append(out, fmt.Sprintf("ctx(p%d)", s.CtxParam))
	}
	return strings.Join(out, ",")
}
