// Package analysis is a small static-analysis framework built only on
// the standard library's go/parser, go/ast, go/types and go/token. It
// loads every package in the module (loader.go) and runs a suite of
// repo-specific checkers that turn this repository's numeric and
// concurrency conventions into machine-checked invariants:
//
//   - floatcmp:   no ==/!= on float operands (exact-zero checks exempt)
//   - gocapture:  goroutines must not write captured variables without
//     a sync primitive or the worker-indexed slot pattern
//   - normreturn: exported score producers must normalize their output
//   - tolerances: tolerance/epsilon literals must come from internal/numeric
//   - panicfree:  no bare panic in library packages
//
// A second generation of checkers is flow-sensitive: each function body
// is compiled to a control-flow graph (cfg.go) and analyzed with a
// forward worklist solver (dataflow.go):
//
//   - errflow:     a returned error must be checked or explicitly
//     discarded on every path
//   - lockbalance: every Lock reaches an Unlock or defer Unlock on all
//     paths (RWMutex aware)
//   - maprange:    map iteration order must not reach an exported score
//     producer's return value unsorted
//   - hotalloc:    no allocations or append growth inside the
//     power-iteration loops of the ranking engines
//
// The third generation is interprocedural: Run builds a module-wide
// call graph (callgraph.go) and computes per-function effect summaries
// bottom-up over its strongly connected components (summary.go), so
// checkers see through helpers. errflow, maprange and hotalloc consume
// the summaries to flag violations a callee hides, and three
// concurrency checkers target the parallel and distributed engines:
//
//   - wgbalance: every wg.Add is matched by a Done guaranteed on all
//     paths of the spawned function, including via callees
//   - chanleak:  no goroutine left blocked forever on a channel that no
//     live path closes or drains
//   - ctxflow:   a ctx-accepting function forwards its ctx to every
//     ctx-accepting callee and spawns no cancellation-blind goroutines
//
// The fourth generation is the purity lattice (purity.go): every
// summary carries a point Pure ⊏ Output ⊏ Impure, and
//
//   - hotpure: //arlint:hot kernels must be transitively pure,
//     allocation-free, and free of dynamic calls in loops
//
// A finding can be suppressed with a sentinel comment on the offending
// line or the line above:
//
//	//arlint:allow <checker> [reason...]
//
// The cmd/arlint driver runs the suite from the command line, and
// self_test.go runs it over the whole repository under `go test`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
	// Fix optionally carries a mechanical edit that resolves the
	// finding; the driver applies it under -fix.
	Fix *SuggestedFix
}

// SuggestedFix is a mechanical resolution of a finding: a set of
// non-overlapping text edits within one file.
type SuggestedFix struct {
	// Message describes the edit ("insert sorted key iteration").
	Message string
	// Edits are applied together; all positions refer to the pass's
	// FileSet and must lie in a single file.
	Edits []TextEdit
	// NeedImport optionally names an import path the file must import
	// after the edit (e.g. "sort"); the applier inserts it if missing.
	NeedImport string
}

// TextEdit replaces the half-open source range [Pos, End) with NewText.
// An insertion has Pos == End.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// String formats the diagnostic in the canonical driver format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Checker, d.Message)
}

// Analyzer is one checker in the suite.
type Analyzer struct {
	// Name is the checker identifier used in diagnostics and in
	// //arlint:allow sentinels.
	Name string
	// Doc is a one-line description (shown by `arlint -list`).
	Doc string
	// LibraryOnly restricts the checker to non-main packages: commands
	// and examples are exempt.
	LibraryOnly bool
	// CanFix marks checkers that attach SuggestedFixes to (some of)
	// their findings, applied by the driver under -fix.
	CanFix bool
	// Run reports findings for one package through pass.Reportf.
	Run func(*Pass)
}

// All is the full checker suite in the order diagnostics are grouped.
var All = []*Analyzer{
	FloatCmp, GoCapture, NormReturn, Tolerances, PanicFree,
	ErrFlow, LockBalance, MapRange, HotAlloc,
	WgBalance, ChanLeak, CtxFlow, HotPure,
}

// Pass carries one analyzed package to one checker, together with the
// module-wide interprocedural facts shared by every pass of one Run:
// the call graph and the per-function effect summaries.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Graph is the static call graph over every loaded package.
	Graph *CallGraph
	// Summaries holds the bottom-up effect summaries; checkers query
	// them through Summaries.CalleeSummary at call sites. Nil-safe: a
	// Pass constructed without summaries (unit tests driving a single
	// checker) degrades to intraprocedural behavior.
	Summaries *Summaries

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an //arlint:allow sentinel for
// this checker covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Checker: p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportfFix is Reportf with a suggested mechanical fix attached.
func (p *Pass) ReportfFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Checker: p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
	})
}

// Run executes the given checkers over the given packages and returns
// the findings sorted by file, line, column, then checker name. The
// call graph and summaries are computed once, before any checker runs,
// so every pass sees the same converged interprocedural facts.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	graph := BuildCallGraph(pkgs)
	sums := ComputeSummaries(graph)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.LibraryOnly && pkg.Name == "main" {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Graph: graph, Summaries: sums, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Checker < b.Checker
	})
	return diags
}

// allowSentinel is the prefix of suppression comments:
//
//	//arlint:allow checker1,checker2 optional free-form reason
const allowSentinel = "arlint:allow"

// buildAllows scans a file's comments for sentinels and returns, per
// line, the set of checkers allowed on that line. A sentinel covers its
// own line (trailing comment) and the line below it (comment above the
// statement).
func buildAllows(fset *token.FileSet, file *ast.File) map[int][]string {
	allows := make(map[int][]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, allowSentinel) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, allowSentinel))
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, name := range strings.Split(fields[0], ",") {
				if name = strings.TrimSpace(name); name != "" {
					allows[line] = append(allows[line], name)
					allows[line+1] = append(allows[line+1], name)
				}
			}
		}
	}
	return allows
}
