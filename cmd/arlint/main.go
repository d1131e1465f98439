// arlint runs the repository's static-analysis suite (internal/analysis)
// over the module containing the current directory.
//
// Usage:
//
//	arlint [flags] [pattern ...]
//
// Patterns select packages by directory: `./...` (the default) analyzes
// the whole module, `./internal/...` a subtree, and a plain directory
// path a single package.
//
// Output formats (-format):
//
//	text   one finding per line: file:line:col: checker: message
//	sarif  a SARIF 2.1.0 log for code-scanning upload
//
// Pipeline flags:
//
//	-checkers a,b         run only the named checkers
//	-disable a,b          run all but the named checkers
//	-fix                  apply suggested fixes, then re-analyze and
//	                      report what remains
//	-callgraph=dot        print the interprocedural call graph (with the
//	                      per-function effect summaries in the labels) as
//	                      Graphviz dot instead of running the checkers
//
// `-list` prints the suite — one checker per line with its enabled
// state under the current -checkers/-disable selection and whether it
// supports -fix — and exits.
//
// Exit status is 0 when the module is clean (after fixes), 1 when
// there are findings, and 2 when the module fails to load or
// type-check.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the checkers (with enabled state and -fix support) and exit")
		checkers  = flag.String("checkers", "", "comma-separated checker names to run (default: all)")
		disable   = flag.String("disable", "", "comma-separated checker names to skip")
		format    = flag.String("format", "text", "output format: text or sarif")
		fix       = flag.Bool("fix", false, "apply suggested fixes, then report remaining findings")
		callgraph = flag.String("callgraph", "", "debug output: 'dot' prints the call graph with summaries and exits")
	)
	flag.Parse()
	suite, err := selectCheckers(*checkers, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		os.Exit(2)
	}
	if *list {
		enabled := make(map[string]bool, len(suite))
		for _, a := range suite {
			enabled[a.Name] = true
		}
		for _, a := range analysis.All {
			state := "enabled"
			if !enabled[a.Name] {
				state = "disabled"
			}
			fixes := "     "
			if a.CanFix {
				fixes = "[fix]"
			}
			fmt.Printf("%-12s %-8s %s  %s\n", a.Name, state, fixes, a.Doc)
		}
		return
	}
	switch *callgraph {
	case "", "dot":
	default:
		fmt.Fprintf(os.Stderr, "arlint: unknown callgraph mode %q (want dot)\n", *callgraph)
		os.Exit(2)
	}
	if *callgraph == "dot" {
		os.Exit(writeDot(flag.Args()))
	}
	switch *format {
	case "text", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "arlint: unknown format %q (want text or sarif)\n", *format)
		os.Exit(2)
	}
	os.Exit(run(flag.Args(), suite, *format, *fix))
}

// selectCheckers resolves -checkers/-disable into the suite to run.
// Both flags name checkers from analysis.All, comma-separated; unknown
// names are an error rather than a silent no-op, so a typo cannot turn
// a checker off in CI unnoticed.
func selectCheckers(only, disable string) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(analysis.All))
	for _, a := range analysis.All {
		byName[a.Name] = a
	}
	parse := func(flagName, csv string) (map[string]bool, error) {
		if strings.TrimSpace(csv) == "" {
			return nil, nil
		}
		set := make(map[string]bool)
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("-%s: unknown checker %q (see -list)", flagName, name)
			}
			set[name] = true
		}
		return set, nil
	}
	keep, err := parse("checkers", only)
	if err != nil {
		return nil, err
	}
	off, err := parse("disable", disable)
	if err != nil {
		return nil, err
	}
	var suite []*analysis.Analyzer
	for _, a := range analysis.All {
		if keep != nil && !keep[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		suite = append(suite, a)
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("the -checkers/-disable selection leaves no checkers to run")
	}
	return suite, nil
}

func run(patterns []string, suite []*analysis.Analyzer, format string, fix bool) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return 2
	}

	diags, npkgs, code := analyze(root, cwd, patterns, suite)
	if code != 0 {
		return code
	}

	if fix {
		fixed, err := analysis.ApplyFixes(analysisFset, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arlint:", err)
			return 2
		}
		for _, f := range fixed {
			fmt.Fprintf(os.Stderr, "arlint: fixed %s\n", relTo(cwd, f))
		}
		if len(fixed) > 0 {
			// The files changed under the loaded ASTs; re-analyze from disk.
			diags, npkgs, code = analyze(root, cwd, patterns, suite)
			if code != 0 {
				return code
			}
		}
	}

	if format == "sarif" {
		if err := analysis.WriteSARIF(os.Stdout, analysis.All, diags, root); err != nil {
			fmt.Fprintln(os.Stderr, "arlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", relTo(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Checker, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "arlint: %d finding(s) in %d package(s)\n", len(diags), npkgs)
		return 1
	}
	return 0
}

// analysisFset is the FileSet of the most recent analyze call; fixes
// must resolve their positions against it.
var analysisFset *token.FileSet

// analyze loads the module, selects packages by pattern and runs the
// selected checker suite. Returns the findings, the number of packages
// analyzed, and a non-zero exit code on load failure.
func analyze(root, cwd string, patterns []string, suite []*analysis.Analyzer) ([]analysis.Diagnostic, int, int) {
	loader := analysis.NewLoader()
	analysisFset = loader.Fset
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return nil, 0, 2
	}
	selected, err := selectPackages(pkgs, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return nil, 0, 2
	}
	return analysis.Run(selected, suite), len(selected), 0
}

// writeDot loads the selected packages, builds the call graph and
// summaries exactly as Run would, and prints them as Graphviz dot
// (-callgraph=dot).
func writeDot(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return 2
	}
	loader := analysis.NewLoader()
	pkgs, err := loader.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return 2
	}
	selected, err := selectPackages(pkgs, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return 2
	}
	graph := analysis.BuildCallGraph(selected)
	sums := analysis.ComputeSummaries(graph)
	if err := graph.WriteDot(os.Stdout, sums); err != nil {
		fmt.Fprintln(os.Stderr, "arlint:", err)
		return 2
	}
	return 0
}

// relTo renders file relative to dir when it lies below it.
func relTo(dir, file string) string {
	//arlint:allow errflow a failed Rel falls back to the absolute path by design
	if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// selectPackages filters pkgs by directory patterns resolved against
// cwd. An empty pattern list means "./...".
func selectPackages(pkgs []*analysis.Package, cwd string, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*analysis.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		dir = filepath.Clean(dir)
		matched := false
		for _, pkg := range pkgs {
			ok := pkg.Dir == dir
			if recursive && !ok {
				ok = strings.HasPrefix(pkg.Dir, dir+string(filepath.Separator))
			}
			if ok {
				matched = true
				if !seen[pkg.Path] {
					seen[pkg.Path] = true
					out = append(out, pkg)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages", pat)
		}
	}
	return out, nil
}
