package approxrank_test

import (
	"math"
	"runtime"
	"testing"

	approxrank "repro"
	"repro/internal/pagerank"
)

// TestMaxIterationsUnbounded runs every engine with MaxIterations =
// math.MaxInt. The budget is an upper bound, not a size: each run must
// converge and report one delta per iteration. An engine that sized a
// buffer from the budget panicked here (makeslice: len out of range),
// and a budget near 2³⁰ made it allocate 8 GiB before its first sweep.
func TestMaxIterationsUnbounded(t *testing.T) {
	// Two CPUs, so the parallel rows run the parallel schemes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, sub := fig4(t)
	const budget = math.MaxInt
	// Engines whose results carry a delta history.
	check := func(name string, res *approxrank.PageRankResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged || res.Iterations < 1 || len(res.Deltas) != res.Iterations {
			t.Errorf("%s: converged=%v iterations=%d len(deltas)=%d", name, res.Converged, res.Iterations, len(res.Deltas))
		}
	}
	for name, cfg := range map[string]approxrank.Config{"sequential": {}, "parallel": {Parallelism: 2}} {
		cfg.MaxIterations = budget
		res, err := approxrank.ApproxRank(sub, cfg)
		if err != nil {
			t.Fatalf("core/%s: %v", name, err)
		}
		check("core/"+name, &res.Result, nil)
	}
	for name, opts := range map[string]approxrank.PageRankOptions{
		"power":        {},
		"extrapolated": {ExtrapolateEvery: 5},
		"gauss-seidel": {Method: pagerank.MethodGaussSeidel},
		"adaptive":     {AdaptiveFreeze: 1e-6},
		"parallel":     {Parallelism: 2},
	} {
		opts.MaxIterations = budget
		res, err := approxrank.GlobalPageRank(g, opts)
		check("pagerank/"+name, res, err)
	}
	// Engines that report only the iteration count.
	or, err := approxrank.ObjectRank(citationData(t), nil, approxrank.ObjectRankConfig{MaxIterations: budget})
	if err != nil || !or.Converged || or.Iterations < 1 {
		t.Errorf("objectrank: err=%v result=%+v", err, or)
	}
	pr, err := approxrank.EstimatePageRank(g, 2, approxrank.PointRankConfig{MaxIterations: budget})
	if err != nil || !pr.Converged || pr.Iterations < 1 {
		t.Errorf("pointrank: err=%v result=%+v", err, pr)
	}
	hr, err := approxrank.HITS(g, approxrank.HITSConfig{MaxIterations: budget})
	if err != nil || !hr.Converged || hr.Iterations < 1 {
		t.Errorf("hits: err=%v result=%+v", err, hr)
	}
}
