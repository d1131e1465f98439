package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition-order graph and
// reports the two shapes that deadlock: a self-edge (a lock class
// acquired while an instance of the same class is already held —
// sync.Mutex is not reentrant) and a cycle between classes (the ABBA
// pattern: one path holds A while taking B, another holds B while
// taking A).
//
// The graph's nodes are lock CLASSES (lockset.go's lockClass): all
// instances of "field mu of type T" share a node, so an ABBA between
// two different instances of the same struct pairing is still a cycle.
// Edges come from the summaries — `held when acquired` is recorded
// intraprocedurally by the lockset flow and propagated through call
// sites (caller's held set × callee's acquired set), so an A→B half
// hidden in a helper still closes the cycle.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisition order must be acyclic across the module (no double-lock, no ABBA)",
	Run:  runLockOrder,
}

// lockOrderFinding is one deadlock report, anchored at an acquisition.
type lockOrderFinding struct {
	pos     token.Pos
	message string
}

func runLockOrder(pass *Pass) {
	if pass.Summaries == nil {
		return
	}
	findings := pass.Summaries.lockOrderFindings()
	if len(findings) == 0 {
		return
	}
	// A finding is global; report it once, from the pass whose package
	// owns the file it is anchored in.
	owned := make(map[string]bool, len(pass.Pkg.Files))
	for _, f := range pass.Pkg.Files {
		owned[pass.Pkg.Fset.Position(f.Pos()).Filename] = true
	}
	for _, f := range findings {
		if owned[pass.Pkg.Fset.Position(f.pos).Filename] {
			pass.Reportf(f.pos, "%s", f.message)
		}
	}
}

// lockOrderFindings computes (once per Run) the module's deadlock
// findings from the union of every summary's lock edges.
func (s *Summaries) lockOrderFindings() []lockOrderFinding {
	if s.lockChecked {
		return s.lockFindings
	}
	s.lockChecked = true

	// Merge every summary's edges, keeping the earliest witness per
	// (from, to) pair for stable positions.
	type edgeKey struct{ from, to string }
	edges := make(map[edgeKey]LockEdge)
	for _, sum := range s.byFunc {
		for _, e := range sum.LockEdges {
			k := edgeKey{e.FromClass, e.ToClass}
			if old, ok := edges[k]; !ok || e.Pos < old.Pos {
				edges[k] = e
			}
		}
	}
	if len(edges) == 0 {
		return nil
	}

	succ := make(map[string][]string)
	nodes := make(map[string]bool)
	for k, e := range edges {
		nodes[k.from] = true
		nodes[k.to] = true
		if k.from != k.to {
			succ[k.from] = append(succ[k.from], k.to)
		} else {
			// Self-edge: double-lock.
			s.lockFindings = append(s.lockFindings, lockOrderFinding{
				pos:     e.Pos,
				message: "lock " + e.ToName + " (class " + e.ToClass + ") acquired while an instance of the same class is already held: sync mutexes are not reentrant, so this self-cycle deadlocks — release first or split the critical section",
			})
		}
	}
	for _, ss := range succ {
		sort.Strings(ss)
	}

	// Tarjan over classes; an SCC with more than one node is a cycle.
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, scc := range classSCCs(names, succ) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		// Anchor at the earliest edge inside the cycle.
		var witness LockEdge
		first := true
		for k, e := range edges {
			if k.from == k.to || !inSCC[k.from] || !inSCC[k.to] {
				continue
			}
			if first || e.Pos < witness.Pos {
				witness, first = e, false
			}
		}
		if first {
			continue
		}
		s.lockFindings = append(s.lockFindings, lockOrderFinding{
			pos:     witness.Pos,
			message: "lock order cycle between {" + strings.Join(scc, ", ") + "}: here " + witness.FromName + " is held while acquiring " + witness.ToName + ", but another path acquires them in the opposite order (ABBA deadlock) — pick one global acquisition order",
		})
	}
	sort.Slice(s.lockFindings, func(i, j int) bool {
		a, b := s.lockFindings[i], s.lockFindings[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.message < b.message
	})
	return s.lockFindings
}

// classSCCs is Tarjan's algorithm over the class graph, iterative to
// match the callgraph implementation's avoidance of deep recursion.
func classSCCs(names []string, succ map[string][]string) [][]string {
	index := make(map[string]int, len(names))
	low := make(map[string]int, len(names))
	onStack := make(map[string]bool, len(names))
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		si   int
	}
	for _, root := range names {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{node: root}}
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.si < len(succ[f.node]) {
				w := succ[f.node][f.si]
				f.si++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					work = append(work, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := &work[len(work)-1]
				if low[f.node] < low[parent.node] {
					low[parent.node] = low[f.node]
				}
			}
			if low[f.node] == index[f.node] {
				var scc []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == f.node {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
