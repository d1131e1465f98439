package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
)

// oracleApproxChain builds the ApproxRank chain the way every
// non-uniform chain is built: buildLambdaRow walks each local page's
// in-edges and weights every external in-neighbour by the uniform E.
func oracleApproxChain(ctx *Context, sub *graph.Subgraph) *ExtendedChain {
	c := newChainShell(sub, false)
	w := 1.0 / float64(sub.External())
	e := c.buildLambdaRow(sub, func(graph.NodeID) float64 { return w })
	c.finishLambdaRow(e, float64(ctx.DanglingCount()-len(c.m.DanglingIdx))*w)
	return c
}

// inMassBound is the first-order rounding error allowed between the
// in-mass Λ entry of page gid and the oracle's: both sides sum at most
// InDegree(gid) terms below w·inMass, plus the subtraction and the
// scaling by w.
func inMassBound(g *graph.Graph, gid graph.NodeID, w float64) float64 {
	return 4 * float64(g.InDegree(gid)+1) * 0x1p-53 * w * inMassOf(g, gid)
}

// checkLambdaAgainstOracle compares the in-mass Λ row of sub with the
// oracle's: identical support, every entry within inMassBound, and
// scores within 1e-12 L1 of a run on the oracle's chain. The one-shot
// row must equal the shared-Context row bit for bit.
func checkLambdaAgainstOracle(t *testing.T, ctx *Context, sub *graph.Subgraph) {
	t.Helper()
	got, err := NewApproxChainCtx(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleApproxChain(ctx, sub)
	gAdj, gProb := got.LambdaRow()
	wAdj, wProb := want.LambdaRow()
	if len(gAdj) != len(wAdj) {
		t.Fatalf("Λ support has %d entries, oracle %d", len(gAdj), len(wAdj))
	}
	w := 1.0 / float64(sub.External())
	for e := range gAdj {
		if gAdj[e] != wAdj[e] {
			t.Fatalf("Λ entry %d is page %d, oracle page %d", e, gAdj[e], wAdj[e])
		}
		gid := sub.Local[gAdj[e]]
		if diff, bound := math.Abs(gProb[e]-wProb[e]), inMassBound(sub.Global, gid, w); diff > bound {
			t.Fatalf("Λ→%d = %v, oracle %v: |diff| %v > bound %v", gid, gProb[e], wProb[e], diff, bound)
		}
	}
	direct, err := NewApproxChain(sub)
	if err != nil {
		t.Fatal(err)
	}
	if dAdj, dProb := direct.LambdaRow(); !slices.Equal(dAdj, gAdj) || !slices.Equal(dProb, gProb) {
		t.Fatalf("one-shot Λ row differs from the shared-Context one")
	}
	if rebuilt := got.Subgraph(); rebuilt == nil || !slices.Equal(rebuilt.Local, sub.Local) {
		t.Fatalf("chain's Subgraph() does not rebuild its local pages")
	}
	if got.ExtDanglingMass() != want.ExtDanglingMass() {
		t.Fatalf("external dangling mass %v, oracle %v", got.ExtDanglingMass(), want.ExtDanglingMass())
	}
	cfg := Config{Tolerance: 1e-14, MaxIterations: 5000}
	r1, err := got.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := want.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := math.Abs(r1.Lambda - r2.Lambda)
	for i := range r1.Scores {
		l1 += math.Abs(r1.Scores[i] - r2.Scores[i])
	}
	if l1 > 1e-12 {
		t.Fatalf("scores differ from the oracle's by %v L1", l1)
	}
}

// randomWeightedGraph is randomSubgraph's graph with a positive weight
// on every edge, spanning five orders of magnitude.
func randomWeightedGraph(t *testing.T, rng *rand.Rand, n, deg int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.08 {
			continue
		}
		for e := 1 + rng.Intn(2*deg); e > 0; e-- {
			if v := rng.Intn(n); v != u {
				b.AddWeightedEdge(graph.NodeID(u), graph.NodeID(v), math.Pow(10, 5*rng.Float64()-2))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomLocal draws a random set of 2..n/2 local pages.
func randomLocal(rng *rand.Rand, n int) []graph.NodeID {
	perm := rng.Perm(n)[:2+rng.Intn(n/2)]
	local := make([]graph.NodeID, len(perm))
	for i, v := range perm {
		local[i] = graph.NodeID(v)
	}
	return local
}

// TestInMassLambdaMatchesOracle is the differential test of the
// in-mass Λ row against buildLambdaRow with a uniform weight, on
// unweighted and weighted random graphs, heap-backed and mmap'd v2.
func TestInMassLambdaMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 12; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g, _ = randomSubgraph(t, rng, 300, 5)
		} else {
			g = randomWeightedGraph(t, rng, 300, 5)
		}
		path := filepath.Join(t.TempDir(), "g.v2")
		if err := graph.SaveFile(path, g); err != nil {
			t.Fatal(err)
		}
		m, err := graph.MmapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ctxHeap, ctxMapped := NewContext(g), NewContext(m)
		for s := 0; s < 4; s++ {
			local := randomLocal(rng, g.NumNodes())
			for _, c := range []*Context{ctxHeap, ctxMapped} {
				sub, err := graph.NewSubgraph(c.Graph(), local)
				if err != nil {
					t.Fatal(err)
				}
				checkLambdaAgainstOracle(t, c, sub)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInMassHub: a local page takes nearly all its in-mass from 1,000
// local in-neighbours of out-degree 1 and 1e-4 from one external page
// of out-degree 10,000. The subtraction cancels ~7 of the 16 digits,
// so the entry is not within 1e-13 relative of the oracle's; it keeps
// its support and stays within the first-order rounding bound.
func TestInMassHub(t *testing.T) {
	const (
		hub     = 0
		feeders = 1000
		x       = feeders + 1 // the external in-neighbour
		fanout  = 10000
	)
	n := x + fanout
	b := graph.NewBuilder(n)
	b.AddEdge(hub, 1)
	for f := 1; f <= feeders; f++ {
		b.AddEdge(graph.NodeID(f), hub)
	}
	b.AddEdge(x, hub)
	for v := x + 1; v < x+fanout; v++ {
		b.AddEdge(x, graph.NodeID(v))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(x) != fanout {
		t.Fatalf("external page has out-degree %d, want %d", g.OutDegree(x), fanout)
	}
	local := make([]graph.NodeID, feeders+1)
	for i := range local {
		local[i] = graph.NodeID(i)
	}
	sub, err := graph.NewSubgraph(g, local)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(g)
	checkLambdaAgainstOracle(t, ctx, sub)
	c, err := NewApproxChainCtx(ctx, sub)
	if err != nil {
		t.Fatal(err)
	}
	adj, prob := c.LambdaRow()
	if len(adj) != 1 || adj[0] != hub || !(prob[0] > 0) {
		t.Fatalf("Λ row = %v %v, want one positive entry on the hub", adj, prob)
	}
	w := 1.0 / float64(sub.External())
	t.Logf("hub entry %v, exact %v, relative error %.2g", prob[0], w/fanout, math.Abs(prob[0]-w/fanout)/(w/fanout))
}

// TestRankManyRacesToInMass: four RankManyCtx workers start on a fresh
// Context, so the first chains race to build its in-mass vector. Every
// result must be bit-identical to a sequential run.
func TestRankManyRacesToInMass(t *testing.T) {
	g, _ := testWeb(t, 3000, 6)
	rng := rand.New(rand.NewSource(4))
	subs := make([]*graph.Subgraph, 8)
	for i := range subs {
		sub, err := graph.NewSubgraph(g, randomLocal(rng, g.NumNodes()))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	cfg := Config{Tolerance: 1e-10}
	got, err := RankManyCtx(context.Background(), NewContext(g), subs, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewContext(g)
	for i, sub := range subs {
		want, err := ApproxRankCtx(seq, sub, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Lambda != want.Lambda || got[i].Iterations != want.Iterations {
			t.Fatalf("subgraph %d: Λ %v/%d iterations, sequential %v/%d",
				i, got[i].Lambda, got[i].Iterations, want.Lambda, want.Iterations)
		}
		for k := range want.Scores {
			if got[i].Scores[k] != want.Scores[k] {
				t.Fatalf("subgraph %d score %d: %v, sequential %v", i, k, got[i].Scores[k], want.Scores[k])
			}
		}
	}
}

// TestOneShotChainFootprint: NewApproxChain on a 100-page subgraph of
// an edgeless 1<<20-page graph allocates O(local) memory — neither a
// dangling-page list (4 MiB) nor an in-mass vector (8 MiB).
func TestOneShotChainFootprint(t *testing.T) {
	g, err := graph.NewBuilder(1 << 20).Build()
	if err != nil {
		t.Fatal(err)
	}
	local := make([]graph.NodeID, 100)
	for i := range local {
		local[i] = graph.NodeID(i * 10007)
	}
	sub, err := graph.NewSubgraph(g, local)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := NewApproxChain(sub)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
		t.Fatalf("NewApproxChain allocated %d bytes, want < 1 MiB", bytes)
	}
	if got, want := c.ExtDanglingMass(), 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("external dangling mass %v, want %v", got, want)
	}
}
