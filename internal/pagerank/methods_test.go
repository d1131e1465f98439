package pagerank

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
)

func randomTestGraph(rng *rand.Rand, n int, danglingFrac float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if rng.Float64() < danglingFrac {
			continue
		}
		d := 1 + rng.Intn(6)
		for e := 0; e < d; e++ {
			v := rng.Intn(n)
			if v != u {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestGaussSeidelAgreement: Gauss–Seidel converges to the same stationary
// vector as power iteration, on unweighted and weighted graphs with
// dangling pages.
func TestGaussSeidelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		g := randomTestGraph(rng, 40+rng.Intn(60), 0.1)
		plain := computeOrDie(t, g, Options{Tolerance: 1e-12, MaxIterations: 5000})
		gs := computeOrDie(t, g, Options{Tolerance: 1e-12, MaxIterations: 5000, Method: MethodGaussSeidel})
		if d := L1(plain.Scores, gs.Scores); d > 1e-8 {
			t.Fatalf("trial %d: Gauss–Seidel differs by L1=%g", trial, d)
		}
		if !gs.Converged {
			t.Fatalf("trial %d: Gauss–Seidel did not converge", trial)
		}
	}
}

// TestGaussSeidelFasterConvergence: on a web-like graph (communities with
// mostly internal links, i.e. a slowly mixing chain) Gauss–Seidel needs
// fewer sweeps than power iteration for the same tolerance. On fast-mixing
// expander-like random graphs the displacement norm of plain power
// iteration can decay faster than Gauss–Seidel's, so the blocky structure
// here is essential — it is also the structure of the paper's workloads.
func TestGaussSeidelFasterConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const (
		blocks    = 20
		blockSize = 50
	)
	n := blocks * blockSize
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		blk := u / blockSize
		d := 1 + rng.Intn(5)
		for e := 0; e < d; e++ {
			var v int
			if rng.Float64() < 0.92 { // intra-community link
				v = blk*blockSize + rng.Intn(blockSize)
			} else {
				v = rng.Intn(n)
			}
			if v != u {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	plain := computeOrDie(t, g, Options{Tolerance: 1e-10, MaxIterations: 5000})
	gs := computeOrDie(t, g, Options{Tolerance: 1e-10, MaxIterations: 5000, Method: MethodGaussSeidel})
	if gs.Iterations >= plain.Iterations {
		t.Errorf("Gauss–Seidel took %d sweeps, power iteration %d", gs.Iterations, plain.Iterations)
	}
}

// TestGaussSeidelWeighted: agreement on weighted graphs.
func TestGaussSeidelWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := graph.NewBuilder(60)
	for u := 0; u < 60; u++ {
		d := 1 + rng.Intn(5)
		for e := 0; e < d; e++ {
			v := rng.Intn(60)
			if v != u {
				b.AddWeightedEdge(graph.NodeID(u), graph.NodeID(v), 0.2+rng.Float64())
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	plain := computeOrDie(t, g, Options{Tolerance: 1e-12, MaxIterations: 5000})
	gs := computeOrDie(t, g, Options{Tolerance: 1e-12, MaxIterations: 5000, Method: MethodGaussSeidel})
	if d := L1(plain.Scores, gs.Scores); d > 1e-8 {
		t.Fatalf("weighted Gauss–Seidel differs by L1=%g", d)
	}
}

// TestAdaptiveAgreement: adaptive freezing perturbs the result by at most
// ~N·threshold, and actually freezes pages.
func TestAdaptiveAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 8; trial++ {
		g := randomTestGraph(rng, 200, 0.1)
		plain := computeOrDie(t, g, Options{Tolerance: 1e-10, MaxIterations: 5000})
		ad := computeOrDie(t, g, Options{Tolerance: 1e-10, MaxIterations: 5000, AdaptiveFreeze: 1e-4})
		if d := L1(plain.Scores, ad.Scores); d > 1e-2 {
			t.Fatalf("trial %d: adaptive differs by L1=%g", trial, d)
		}
		if ad.FrozenPages == 0 {
			t.Errorf("trial %d: adaptive froze no pages", trial)
		}
	}
}

// TestAdaptiveTinyThresholdExact: with a freeze threshold far below the
// tolerance, adaptive matches plain iteration almost exactly.
func TestAdaptiveTinyThresholdExact(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	g := randomTestGraph(rng, 150, 0.05)
	plain := computeOrDie(t, g, Options{Tolerance: 1e-9, MaxIterations: 5000})
	ad := computeOrDie(t, g, Options{Tolerance: 1e-9, MaxIterations: 5000, AdaptiveFreeze: 1e-9})
	if d := L1(plain.Scores, ad.Scores); d > 1e-5 {
		t.Fatalf("adaptive(tiny) differs by L1=%g", d)
	}
}

// TestAdaptivePreservesRanking: the freeze error must not disturb the
// top of the ranking.
func TestAdaptivePreservesRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randomTestGraph(rng, 400, 0.08)
	plain := computeOrDie(t, g, Options{Tolerance: 1e-10, MaxIterations: 5000})
	ad := computeOrDie(t, g, Options{Tolerance: 1e-10, MaxIterations: 5000, AdaptiveFreeze: 1e-5})
	top := func(s []float64) int {
		best := 0
		for i, x := range s {
			if x > s[best] {
				best = i
			}
		}
		return best
	}
	if top(plain.Scores) != top(ad.Scores) {
		t.Errorf("adaptive changed the top page: %d vs %d", top(plain.Scores), top(ad.Scores))
	}
}

// adaptiveCase runs the engine's adaptive PageRank and the oracle on g
// under opts.
func adaptiveCase(t *testing.T, g *graph.Graph, opts Options) (got, want *Result) {
	t.Helper()
	got = computeOrDie(t, g, opts)
	if err := opts.fill(g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	want, err := adaptiveOracle(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// adaptiveOptions are the freeze settings both adaptive oracle tests
// run: two thresholds, a personalized jump, a custom dangling
// distribution with a start vector, and an iteration cap that stops
// the run before it converges.
func adaptiveOptions(rng *rand.Rand, n int) []Options {
	dist := func() []float64 {
		v := make([]float64, n)
		sum := 0.0
		for i := range v {
			v[i] = rng.Float64()
			sum += v[i]
		}
		for i := range v {
			v[i] /= sum
		}
		return v
	}
	return []Options{
		{AdaptiveFreeze: 1e-3},
		{AdaptiveFreeze: 1e-5, Tolerance: 1e-9, MaxIterations: 5000},
		{AdaptiveFreeze: 1e-4, Personalization: dist()},
		{AdaptiveFreeze: 1e-4, DanglingDist: dist(), Start: dist()},
		{AdaptiveFreeze: 1e-3, Tolerance: 1e-12, MaxIterations: 9},
	}
}

// TestAdaptiveMatchesOracle: on unweighted webs, adaptive PageRank over
// the push snapshot reproduces the interface-walking oracle exactly —
// every score, every delta, the iteration count and the frozen-page
// count.
func TestAdaptiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		g := randomTestGraph(rng, 100+trial*150, 0.08)
		for k, opts := range adaptiveOptions(rng, g.NumNodes()) {
			got, want := adaptiveCase(t, g, opts)
			if got.Iterations != want.Iterations || got.FrozenPages != want.FrozenPages || got.Converged != want.Converged {
				t.Fatalf("trial %d options %d: %d iterations, %d frozen, converged %v; oracle %d, %d, %v", trial, k,
					got.Iterations, got.FrozenPages, got.Converged, want.Iterations, want.FrozenPages, want.Converged)
			}
			for i := range want.Deltas {
				if got.Deltas[i] != want.Deltas[i] {
					t.Fatalf("trial %d options %d: delta %d = %v, oracle %v", trial, k, i, got.Deltas[i], want.Deltas[i])
				}
			}
			for v := range want.Scores {
				if got.Scores[v] != want.Scores[v] {
					t.Fatalf("trial %d options %d: score %d = %v, oracle %v", trial, k, v, got.Scores[v], want.Scores[v])
				}
			}
		}
	}
}

// TestAdaptiveWeightedOracle: on weighted webs the kernel multiplies by
// precomputed per-edge probabilities where the oracle divides by the
// total out-weight, so sums associate differently and scores may move
// by rounding. The test logs the largest L1 gap and the iteration and
// frozen-page counts where it occurs, and bounds them: a rounding
// difference may at most tip a page across the freeze threshold.
func TestAdaptiveWeightedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	worst, worstAt := -1.0, ""
	cases, countsDiffer := 0, 0
	for trial := 0; trial < 6; trial++ {
		g := weightedTestGraph(rng, 100+trial*150, 0.08)
		for k, opts := range adaptiveOptions(rng, g.NumNodes()) {
			got, want := adaptiveCase(t, g, opts)
			gap := L1(got.Scores, want.Scores)
			cases++
			if got.Iterations != want.Iterations || got.FrozenPages != want.FrozenPages {
				countsDiffer++
			}
			if gap > worst {
				worst = gap
				worstAt = fmt.Sprintf("trial %d options %d: %d/%d iterations, %d/%d frozen (kernel/oracle)",
					trial, k, got.Iterations, want.Iterations, got.FrozenPages, want.FrozenPages)
			}
			if gap > 10*opts.AdaptiveFreeze || math.Abs(float64(got.Iterations-want.Iterations)) > 2 {
				t.Errorf("trial %d options %d: L1 gap %g, %d vs %d iterations", trial, k, gap, got.Iterations, want.Iterations)
			}
		}
	}
	t.Logf("largest L1 gap %g at %s; counts differ in %d of %d cases", worst, worstAt, countsDiffer, cases)
}

// weightedTestGraph is randomTestGraph with weights drawn from
// [0.1, 3.1) on every edge.
func weightedTestGraph(rng *rand.Rand, n int, danglingFrac float64) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if rng.Float64() < danglingFrac {
			continue
		}
		d := 1 + rng.Intn(6)
		for e := 0; e < d; e++ {
			v := rng.Intn(n)
			if v != u {
				b.AddWeightedEdge(graph.NodeID(u), graph.NodeID(v), 0.1+3*rng.Float64())
			}
		}
	}
	b.EnsureNode(graph.NodeID(n - 1))
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestMethodValidation: invalid method combinations are rejected.
func TestMethodValidation(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	bad := []Options{
		{Method: Method(9)},
		{AdaptiveFreeze: -1},
		{Method: MethodGaussSeidel, ExtrapolateEvery: 5},
		{Method: MethodGaussSeidel, AdaptiveFreeze: 1e-4},
		{AdaptiveFreeze: 1e-4, ExtrapolateEvery: 5},
	}
	for i, o := range bad {
		if _, err := Compute(g, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

// adaptiveOracle is adaptive PageRank walking the graph through the
// DirectedGraph interface every iteration, dividing by the out-degree
// or total out-weight per active source: the engine's implementation
// before it ran on a kernel.PushSnapshot, kept as the oracle for it.
// opts must be filled.
func adaptiveOracle(ctx context.Context, g DirectedGraph, opts Options) (*Result, error) {
	n := g.NumNodes()
	start := time.Now()
	uniform := 1.0 / float64(n)
	pAt := func(i int) float64 {
		if opts.Personalization == nil {
			return uniform
		}
		return opts.Personalization[i]
	}
	dAt := func(i int) float64 {
		if opts.DanglingDist == nil {
			return pAt(i)
		}
		return opts.DanglingDist[i]
	}

	cur := make([]float64, n)
	if opts.Start != nil {
		copy(cur, opts.Start)
	} else {
		for i := range cur {
			cur[i] = pAt(i)
		}
	}
	next := make([]float64, n)
	frozen := make([]bool, n)
	small := make([]uint8, n) // consecutive small-delta count
	// frozenBase[v] accumulates ε·x_u·A[u][v] over frozen u (link part);
	// frozenDangling accumulates the scores of frozen dangling pages.
	frozenBase := make([]float64, n)
	frozenDangling := 0.0
	nFrozen := 0

	threshold := opts.AdaptiveFreeze / float64(n)
	eps := opts.Epsilon
	deltas, converged, err := iterate(ctx, &opts, func() float64 {
		activeDangling := 0.0
		for u := 0; u < n; u++ {
			if !frozen[u] && g.Dangling(uint32(u)) {
				activeDangling += cur[u]
			}
		}
		danglingMass := activeDangling + frozenDangling
		for v := 0; v < n; v++ {
			if frozen[v] {
				continue
			}
			next[v] = (1-eps)*pAt(v) + eps*danglingMass*dAt(v) + frozenBase[v]
		}
		for u := 0; u < n; u++ {
			if frozen[u] || cur[u] == 0 {
				continue
			}
			adj := g.OutNeighbors(uint32(u))
			if len(adj) == 0 {
				continue
			}
			ws := g.OutWeights(uint32(u))
			if ws == nil {
				share := eps * cur[u] / float64(len(adj))
				for _, v := range adj {
					if !frozen[v] {
						next[v] += share
					}
				}
			} else {
				wout := g.WeightOut(uint32(u))
				if wout == 0 {
					continue
				}
				scale := eps * cur[u] / wout
				for k, v := range adj {
					if !frozen[v] {
						next[v] += scale * ws[k]
					}
				}
			}
		}

		delta := 0.0
		for v := 0; v < n; v++ {
			if frozen[v] {
				continue
			}
			d := math.Abs(next[v] - cur[v])
			delta += d
			cur[v] = next[v]
			if d < threshold {
				small[v]++
			} else {
				small[v] = 0
			}
		}

		// Freeze pages that have been stable twice in a row, folding their
		// now-constant contributions into the base.
		for u := 0; u < n; u++ {
			if frozen[u] || small[u] < 2 {
				continue
			}
			frozen[u] = true
			nFrozen++
			if g.Dangling(uint32(u)) {
				frozenDangling += cur[u]
				continue
			}
			adj := g.OutNeighbors(uint32(u))
			ws := g.OutWeights(uint32(u))
			if ws == nil {
				share := eps * cur[u] / float64(len(adj))
				for _, v := range adj {
					frozenBase[v] += share
				}
			} else {
				wout := g.WeightOut(uint32(u))
				if wout > 0 {
					scale := eps * cur[u] / wout
					for k, v := range adj {
						frozenBase[v] += scale * ws[k]
					}
				}
			}
		}
		return delta
	})
	if err != nil {
		return nil, err
	}
	normalize(cur)
	return &Result{Scores: cur, Iterations: len(deltas), Converged: converged, Deltas: deltas,
		FrozenPages: nFrozen, Elapsed: time.Since(start)}, nil
}
