// benchjson converts `go test -bench` text output on stdin into a JSON
// document on stdout, so benchmark numbers land in a machine-readable
// artifact (`make bench` writes BENCH_core.json) instead of a terminal
// scrollback.
//
// Each benchmark result line
//
//	BenchmarkApproxRank-8    120    9876543 ns/op    4096 B/op    12 allocs/op    34 iterations
//
// becomes one object: the trailing value/unit pairs — the standard
// ns/op, B/op, allocs/op plus any custom b.ReportMetric units — are
// collected into the metrics map verbatim, keyed by unit. Repeated runs
// of one benchmark (go test -count N) become one object whose every
// metric is the median over the runs, so one slow run cannot move the
// artifact by itself.
//
// Usage:
//
//	go test -bench=. -benchmem -count=3 -run='^$' ./internal/core/ | benchjson
//
// With -diff, benchjson instead compares two of its own artifacts and
// gates on regressions (see runDiff):
//
//	benchjson -diff [-threshold pct] old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark line, parsed.
type Result struct {
	// Name is the benchmark name without the Benchmark prefix, with the
	// -<procs> suffix split off (sub-benchmark paths are preserved:
	// "RankMany/workers=4").
	Name string `json:"name"`
	// Pkg is the package the result came from (the preceding "pkg:" line).
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix of the name (0 if absent).
	Procs int `json:"procs,omitempty"`
	// Iterations is the b.N the reported means were averaged over (the
	// median b.N when the benchmark ran more than once).
	Iterations int64 `json:"iterations"`
	// Runs is how many result lines the benchmark had (go test -count).
	Runs int `json:"runs"`
	// Metrics maps unit -> value for every value/unit pair on the line:
	// ns/op, B/op, allocs/op, MB/s and custom ReportMetric units; the
	// median over the runs for a repeated benchmark.
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	diff := flag.Bool("diff", false, "compare two benchjson artifacts: benchjson -diff [-threshold pct] old.json new.json")
	threshold := flag.Float64("threshold", 10, "with -diff, max allowed percent regression in ns/op or allocs/op")
	flag.Parse()
	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two artifacts: old.json new.json")
			os.Exit(2)
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1), *threshold, os.Stdout, os.Stderr))
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchjson: reads `go test -bench` output on stdin; positional arguments need -diff")
		os.Exit(2)
	}
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable body of main. The zero-results check happens
// BEFORE anything is encoded: input with no benchmark lines must exit 1
// without printing an empty JSON array that a downstream consumer would
// happily treat as a successful (if benchmark-free) run.
func run(in io.Reader, out, errw io.Writer) int {
	results, err := parse(bufio.NewScanner(in))
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(errw, "benchjson: no benchmark lines on stdin")
		return 1
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(medians(results)); err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	return 0
}

func parse(sc *bufio.Scanner) ([]Result, error) {
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	results := []Result{}
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is name, iteration count, then value/unit pairs;
		// a bare "BenchmarkX" header line without numbers is skipped.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{
			Name:       strings.TrimPrefix(fields[0], "Benchmark"),
			Pkg:        pkg,
			Iterations: iters,
			Metrics:    make(map[string]float64, (len(fields)-2)/2),
		}
		// Split the -<procs> suffix off the last path element.
		if i := strings.LastIndex(r.Name, "-"); i > 0 {
			if procs, err := strconv.Atoi(r.Name[i+1:]); err == nil {
				r.Procs = procs
				r.Name = r.Name[:i]
			}
		}
		bad := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				bad = true
				break
			}
			r.Metrics[fields[i+1]] = v
		}
		if bad {
			continue
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// medians folds the runs of each benchmark (same package, name and
// procs) into one result, in first-appearance order: Runs counts them,
// and Iterations and every metric are the median over the runs that
// report it — the mean of the middle two for an even count.
func medians(results []Result) []Result {
	type key struct {
		pkg, name string
		procs     int
	}
	at := make(map[key]int)
	var out []Result
	var runs [][]Result
	for _, r := range results {
		k := key{r.Pkg, r.Name, r.Procs}
		i, ok := at[k]
		if !ok {
			i = len(out)
			at[k] = i
			out = append(out, r)
			runs = append(runs, nil)
		}
		runs[i] = append(runs[i], r)
	}
	for i, rs := range runs {
		iters := make([]float64, len(rs))
		byUnit := make(map[string][]float64)
		for k, r := range rs {
			iters[k] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				byUnit[unit] = append(byUnit[unit], v)
			}
		}
		m := &out[i]
		m.Runs, m.Iterations = len(rs), int64(median(iters))
		m.Metrics = make(map[string]float64, len(byUnit))
		for unit, vs := range byUnit {
			m.Metrics[unit] = median(vs)
		}
	}
	return out
}

// median returns the median of vs (sorted in place); vs is non-empty.
func median(vs []float64) float64 {
	slices.Sort(vs)
	h := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[h]
	}
	return (vs[h-1] + vs[h]) / 2
}
