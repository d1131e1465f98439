package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// benchWeb builds a deterministic random web of n pages with outDeg
// links each, and a subgraph over the first quarter — large enough for
// the chain construction and the power iteration to dominate, small
// enough for a -bench run. It takes testing.TB so the parallel-path
// tests can reuse the same topology.
func benchWeb(b testing.TB, n, outDeg int) (*graph.Graph, *graph.Subgraph) {
	b.Helper()
	rng := rand.New(rand.NewSource(2009))
	edges := make([][2]graph.NodeID, 0, n*outDeg)
	for u := 0; u < n; u++ {
		for k := 0; k < outDeg; k++ {
			v := rng.Intn(n - 1)
			if v >= u {
				v++ // no self-loops: keep every page's mass moving
			}
			edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)})
		}
	}
	g := graph.MustFromEdges(n, edges)
	local := make([]graph.NodeID, n/4)
	for i := range local {
		local[i] = graph.NodeID(i)
	}
	sub, err := graph.NewSubgraph(g, local)
	if err != nil {
		b.Fatalf("NewSubgraph: %v", err)
	}
	return g, sub
}

// BenchmarkNewApproxChain measures the one-shot chain build: the
// Context's dangling count plus each local page's in-mass summed from its
// in-row.
func BenchmarkNewApproxChain(b *testing.B) {
	_, sub := benchWeb(b, 20000, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewApproxChain(sub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewApproxChainCtx measures the chain build rankd runs on a
// miss: benchWeb's subgraph against a shared Context whose in-mass
// vector is built before the timer (by its second chain), so the build
// reads only the local pages' out-edges.
func BenchmarkNewApproxChainCtx(b *testing.B) {
	g, sub := benchWeb(b, 20000, 8)
	ctx := NewContext(g)
	for i := 0; i < 2; i++ {
		if _, err := NewApproxChainCtx(ctx, sub); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewApproxChainCtx(ctx, sub); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApproxRank measures the full ApproxRank pipeline: chain
// construction plus the power iteration to convergence.
func BenchmarkApproxRank(b *testing.B) {
	_, sub := benchWeb(b, 20000, 8)
	cfg := Config{Tolerance: 1e-8}
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = ApproxRank(sub, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Iterations), "iterations")
}

// BenchmarkRankMany measures the fan-out path of many.go: ranking
// several subgraphs of one web against a shared Context.
func BenchmarkRankMany(b *testing.B) {
	g, _ := benchWeb(b, 20000, 8)
	ctx := NewContext(g)
	const parts = 8
	subs := make([]*graph.Subgraph, parts)
	per := g.NumNodes() / (2 * parts)
	for p := 0; p < parts; p++ {
		local := make([]graph.NodeID, per)
		for i := range local {
			local[i] = graph.NodeID(p*per + i)
		}
		sub, err := graph.NewSubgraph(g, local)
		if err != nil {
			b.Fatalf("NewSubgraph: %v", err)
		}
		subs[p] = sub
	}
	cfg := Config{Tolerance: 1e-8}
	for _, workers := range []int{1, 4} {
		name := "workers=1"
		if workers == 4 {
			name = "workers=4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RankMany(ctx, subs, cfg, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
