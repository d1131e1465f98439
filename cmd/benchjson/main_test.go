package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/core
BenchmarkApproxRank-8    120    9876543 ns/op    4096 B/op    12 allocs/op
BenchmarkRankMany/workers=4-8    50    222222 ns/op
PASS
ok  	repro/internal/core	2.345s
`

func TestRunParsesBenchOutput(t *testing.T) {
	var out, errw strings.Builder
	if code := run(strings.NewReader(sampleBench), &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %q)", code, errw.String())
	}
	var results []Result
	if err := json.Unmarshal([]byte(out.String()), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	r := results[0]
	if r.Name != "ApproxRank" || r.Procs != 8 || r.Pkg != "repro/internal/core" {
		t.Errorf("unexpected first result: %+v", r)
	}
	if r.Metrics["ns/op"] != 9876543 || r.Metrics["allocs/op"] != 12 {
		t.Errorf("unexpected metrics: %v", r.Metrics)
	}
	if results[1].Name != "RankMany/workers=4" {
		t.Errorf("sub-benchmark name = %q", results[1].Name)
	}
}

// TestRunTakesMedians: three runs of one benchmark (go test -count 3)
// become one result carrying each metric's median, whichever run it
// came from, next to a benchmark that ran once.
func TestRunTakesMedians(t *testing.T) {
	const in = `pkg: repro/internal/core
BenchmarkRankMany/workers=4-2    900    1319000 ns/op    5000 B/op    74 allocs/op
BenchmarkRankMany/workers=4-2    1000    976000 ns/op    5100 B/op    74 allocs/op
BenchmarkApproxRank-2    120    9876543 ns/op    4096 B/op    9 allocs/op
BenchmarkRankMany/workers=4-2    1100    1170000 ns/op    4900 B/op    75 allocs/op
`
	var out, errw strings.Builder
	if code := run(strings.NewReader(in), &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %q)", code, errw.String())
	}
	var results []Result
	if err := json.Unmarshal([]byte(out.String()), &results); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(results) != 2 || results[0].Name != "RankMany/workers=4" || results[1].Name != "ApproxRank" {
		t.Fatalf("want RankMany/workers=4 then ApproxRank, got %+v", results)
	}
	r := results[0]
	want := map[string]float64{"ns/op": 1170000, "B/op": 5000, "allocs/op": 74}
	for unit, v := range want {
		if r.Metrics[unit] != v {
			t.Errorf("%s median = %v, want %v", unit, r.Metrics[unit], v)
		}
	}
	if r.Runs != 3 || r.Iterations != 1000 {
		t.Errorf("runs %d, iterations %d; want 3 and the median b.N 1000", r.Runs, r.Iterations)
	}
	if results[1].Runs != 1 || results[1].Metrics["ns/op"] != 9876543 {
		t.Errorf("single run changed: %+v", results[1])
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
}

// TestRunEmptyInputExitsBeforeEncoding is the regression test for the
// order-of-operations bug: with no benchmark lines on stdin, benchjson
// must exit 1 and print NOTHING on stdout — previously it emitted an
// empty JSON array first and only then noticed the input was empty, so a
// pipeline writing the output to a file captured a plausible-looking
// (but vacuous) artifact alongside the failure.
func TestRunEmptyInputExitsBeforeEncoding(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"empty", ""},
		{"no bench lines", "goos: linux\nPASS\nok  \trepro/internal/core\t0.1s\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw strings.Builder
			if code := run(strings.NewReader(tc.in), &out, &errw); code != 1 {
				t.Fatalf("run = %d, want 1", code)
			}
			if out.Len() != 0 {
				t.Errorf("stdout not empty: %q", out.String())
			}
			if !strings.Contains(errw.String(), "no benchmark lines") {
				t.Errorf("stderr = %q, want a 'no benchmark lines' diagnostic", errw.String())
			}
		})
	}
}
