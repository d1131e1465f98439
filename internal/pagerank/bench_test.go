package pagerank

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// benchWeb builds a deterministic random web for the global engine
// benchmarks.
func benchWeb(b *testing.B, n, outDeg int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(2009))
	edges := make([][2]graph.NodeID, 0, n*outDeg)
	for u := 0; u < n; u++ {
		for k := 0; k < outDeg; k++ {
			v := rng.Intn(n - 1)
			if v >= u {
				v++
			}
			edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
		}
	}
	return graph.MustFromEdges(n, edges)
}

// BenchmarkComputeSequential measures the plain power iteration.
func BenchmarkComputeSequential(b *testing.B) {
	g := benchWeb(b, 50000, 8)
	opts := Options{Tolerance: 1e-8}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Compute(g, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Iterations), "iterations")
}

// BenchmarkComputeParallel measures the pooled pull power iteration at
// a fixed requested worker count (the pool caps it at GOMAXPROCS).
func BenchmarkComputeParallel(b *testing.B) {
	g := benchWeb(b, 50000, 8)
	opts := Options{Tolerance: 1e-8, Parallelism: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}
