package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pagerank"
)

// figureGraph builds the paper's worked example (Figures 4–6): local pages
// A,B,C,D (ids 0–3) and external pages X,Y,Z (ids 4–6).
func figureGraph(t testing.TB) (*graph.Graph, *graph.Subgraph) {
	t.Helper()
	const (
		A = 0
		B = 1
		C = 2
		D = 3
		X = 4
		Y = 5
		Z = 6
	)
	g := graph.MustFromEdges(7, [][2]graph.NodeID{
		{A, B}, {A, C}, {A, X}, {A, Z},
		{B, D},
		{C, B}, {C, D},
		{D, A},
		{X, C}, {X, Y}, {X, Z},
		{Y, C}, {Y, X},
		{Z, C}, {Z, D},
	})
	sub, err := graph.NewSubgraph(g, []graph.NodeID{A, B, C, D})
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	return g, sub
}

// TestFigure456Example checks the exact transition probabilities the paper
// derives for the ApproxRank extended local graph of Figure 6:
// A→Λ = 1/2, Λ→C = 4/9, Λ→D = 1/6, Λ→Λ = 7/18.
func TestFigure456Example(t *testing.T) {
	_, sub := figureGraph(t)
	c, err := NewApproxChain(sub)
	if err != nil {
		t.Fatalf("NewApproxChain: %v", err)
	}
	approx := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	// Local rows use GLOBAL out-degrees: A has out-degree 4.
	adj, prob := c.LocalTransitions(0)
	if len(adj) != 2 {
		t.Fatalf("A has %d local targets, want 2", len(adj))
	}
	approx(prob[0], 0.25, "A→B")
	approx(prob[1], 0.25, "A→C")
	approx(c.ToLambda(0), 0.5, "A→Λ")

	approx(c.ToLambda(1), 0, "B→Λ")
	approx(c.ToLambda(2), 0, "C→Λ")
	approx(c.ToLambda(3), 0, "D→Λ")

	approx(c.LambdaTo(0), 0, "Λ→A")
	approx(c.LambdaTo(1), 0, "Λ→B")
	approx(c.LambdaTo(2), 4.0/9.0, "Λ→C")
	approx(c.LambdaTo(3), 1.0/6.0, "Λ→D")
	approx(c.LambdaSelfLoop(), 7.0/18.0, "Λ→Λ")
}

// TestChainRowsStochastic verifies that every row of the collapsed
// transition matrix sums to 1 for both ApproxRank and IdealRank chains on
// random graphs.
func TestChainRowsStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g, sub := randomSubgraph(t, rng, 60, 4)
		chains := map[string]*ExtendedChain{}
		ac, err := NewApproxChain(sub)
		if err != nil {
			t.Fatalf("NewApproxChain: %v", err)
		}
		chains["approx"] = ac
		gr, err := pagerank.Compute(g, pagerank.Options{Tolerance: 1e-10})
		if err != nil {
			t.Fatalf("global PageRank: %v", err)
		}
		ic, err := NewIdealChain(sub, gr.Scores)
		if err != nil {
			t.Fatalf("NewIdealChain: %v", err)
		}
		chains["ideal"] = ic
		for name, c := range chains {
			for i := 0; i < c.NumLocal(); i++ {
				if slices.Contains(c.m.DanglingIdx, uint32(i)) {
					continue // row handled by the dangling mechanism
				}
				_, prob := c.LocalTransitions(i)
				sum := c.ToLambda(i)
				for _, p := range prob {
					sum += p
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("trial %d %s: local row %d sums to %v", trial, name, i, sum)
				}
			}
			lamSum := c.LambdaSelfLoop()
			for k := 0; k < c.NumLocal(); k++ {
				lamSum += c.LambdaTo(k)
			}
			// The Λ row's dangling mass also reaches local pages and Λ via
			// LambdaTo/LambdaSelfLoop, so the full row must sum to 1.
			if math.Abs(lamSum-1) > 1e-9 {
				t.Fatalf("trial %d %s: Λ row sums to %v", trial, name, lamSum)
			}
		}
	}
}

// randomSubgraph generates a random directed graph with n nodes and
// average degree deg, plus a random subgraph of 20–60% of its pages.
func randomSubgraph(t testing.TB, rng *rand.Rand, n int, deg int) (*graph.Graph, *graph.Subgraph) {
	t.Helper()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if rng.Float64() < 0.08 {
			continue // dangling page
		}
		d := 1 + rng.Intn(2*deg)
		for e := 0; e < d; e++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build random graph: %v", err)
	}
	size := 2 + rng.Intn(n/2)
	perm := rng.Perm(n)
	local := make([]graph.NodeID, size)
	for i := 0; i < size; i++ {
		local[i] = graph.NodeID(perm[i])
	}
	sub, err := graph.NewSubgraph(g, local)
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	return g, sub
}

// TestIdealRankExact reproduces Theorem 1: IdealRank scores equal the true
// global PageRank scores of the local pages, and the Λ score equals the
// total external score.
func TestIdealRankExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g, sub := randomSubgraph(t, rng, 80, 4)
		gr, err := pagerank.Compute(g, pagerank.Options{Tolerance: 1e-13, MaxIterations: 5000})
		if err != nil {
			t.Fatalf("global PageRank: %v", err)
		}
		ir, err := IdealRank(sub, gr.Scores, Config{Tolerance: 1e-13, MaxIterations: 5000})
		if err != nil {
			t.Fatalf("IdealRank: %v", err)
		}
		wantLambda := 0.0
		gapL1 := 0.0
		for gid, s := range gr.Scores {
			if li, local := sub.LocalID(graph.NodeID(gid)); local {
				gapL1 += math.Abs(ir.Scores[li] - s)
			} else {
				wantLambda += s
			}
		}
		if gapL1 > 1e-8 {
			t.Fatalf("trial %d: IdealRank deviates from global PageRank, L1=%g", trial, gapL1)
		}
		if math.Abs(ir.Lambda-wantLambda) > 1e-8 {
			t.Fatalf("trial %d: Λ score %v, want sum of external scores %v", trial, ir.Lambda, wantLambda)
		}
	}
}

// TestIdealRankExactWeighted extends Theorem 1 to weighted
// (ObjectRank-style authority transfer) graphs.
func TestIdealRankExactWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 50
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			if rng.Float64() < 0.05 {
				continue
			}
			d := 1 + rng.Intn(6)
			for e := 0; e < d; e++ {
				v := rng.Intn(n)
				if v == u {
					continue
				}
				b.AddWeightedEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		perm := rng.Perm(n)
		local := make([]graph.NodeID, 10+rng.Intn(20))
		for i := range local {
			local[i] = graph.NodeID(perm[i])
		}
		sub, err := graph.NewSubgraph(g, local)
		if err != nil {
			t.Fatalf("NewSubgraph: %v", err)
		}
		gr, err := pagerank.Compute(g, pagerank.Options{Tolerance: 1e-13, MaxIterations: 5000})
		if err != nil {
			t.Fatalf("global PageRank: %v", err)
		}
		ir, err := IdealRank(sub, gr.Scores, Config{Tolerance: 1e-13, MaxIterations: 5000})
		if err != nil {
			t.Fatalf("IdealRank: %v", err)
		}
		for li, gid := range sub.Local {
			if math.Abs(ir.Scores[li]-gr.Scores[gid]) > 1e-8 {
				t.Fatalf("trial %d: local %d score %v, want %v", trial, li, ir.Scores[li], gr.Scores[gid])
			}
		}
	}
}

// TestErrorBound reproduces Theorem 2: the L1 distance between converged
// IdealRank and ApproxRank local scores is at most ε/(1−ε)·‖E−E_approx‖₁.
func TestErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g, sub := randomSubgraph(t, rng, 70, 4)
		gr, err := pagerank.Compute(g, pagerank.Options{Tolerance: 1e-12, MaxIterations: 5000})
		if err != nil {
			t.Fatalf("global PageRank: %v", err)
		}
		cfg := Config{Tolerance: 1e-12, MaxIterations: 5000}
		ideal, err := IdealRank(sub, gr.Scores, cfg)
		if err != nil {
			t.Fatalf("IdealRank: %v", err)
		}
		ap, err := ApproxRank(sub, cfg)
		if err != nil {
			t.Fatalf("ApproxRank: %v", err)
		}
		gap := 0.0
		for i := range ideal.Scores {
			gap += math.Abs(ideal.Scores[i] - ap.Scores[i])
		}
		// ‖E − E_approx‖₁ over external pages.
		extSum := 0.0
		for gid, s := range gr.Scores {
			if _, local := sub.LocalID(graph.NodeID(gid)); !local {
				extSum += s
			}
		}
		uni := 1.0 / float64(sub.External())
		eDist := 0.0
		for gid, s := range gr.Scores {
			if _, local := sub.LocalID(graph.NodeID(gid)); !local {
				eDist += math.Abs(s/extSum - uni)
			}
		}
		eps := 0.85
		bound := eps / (1 - eps) * eDist
		if gap > bound+1e-9 {
			t.Fatalf("trial %d: gap %v exceeds Theorem 2 bound %v (‖E−E_approx‖₁=%v)",
				trial, gap, bound, eDist)
		}
	}
}

// TestScoresSumToOne: local scores plus Λ form a probability distribution.
func TestScoresSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		_, sub := randomSubgraph(t, rng, 50, 3)
		res, err := ApproxRank(sub, Config{})
		if err != nil {
			t.Fatalf("ApproxRank: %v", err)
		}
		sum := res.Lambda
		for _, s := range res.Scores {
			sum += s
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("trial %d: scores+Λ sum to %v", trial, sum)
		}
		if !res.Converged {
			t.Fatalf("trial %d: did not converge in %d iterations", trial, res.Iterations)
		}
	}
}

// TestContextMatchesDirect: the context-based constructor must produce the
// same chain as the direct one.
func TestContextMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, sub := randomSubgraph(t, rng, 90, 4)
	ctx := NewContext(g)
	direct, err := NewApproxChain(sub)
	if err != nil {
		t.Fatalf("NewApproxChain: %v", err)
	}
	viaCtx, err := NewApproxChainCtx(ctx, sub)
	if err != nil {
		t.Fatalf("NewApproxChainCtx: %v", err)
	}
	r1, err := direct.Run(Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := viaCtx.Run(Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range r1.Scores {
		if r1.Scores[i] != r2.Scores[i] {
			t.Fatalf("score %d differs: %v vs %v", i, r1.Scores[i], r2.Scores[i])
		}
	}
}

// TestMixExternalScores: alpha=1 must reproduce IdealRank, alpha=0
// ApproxRank, and the ranking error must not grow as alpha increases.
func TestMixExternalScores(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, sub := randomSubgraph(t, rng, 100, 4)
	gr, err := pagerank.Compute(g, pagerank.Options{Tolerance: 1e-12, MaxIterations: 5000})
	if err != nil {
		t.Fatalf("global PageRank: %v", err)
	}
	cfg := Config{Tolerance: 1e-12, MaxIterations: 5000}
	ideal, err := IdealRank(sub, gr.Scores, cfg)
	if err != nil {
		t.Fatalf("IdealRank: %v", err)
	}
	gapAt := func(alpha float64) float64 {
		t.Helper()
		mixed, err := MixExternalScores(sub, gr.Scores, alpha)
		if err != nil {
			t.Fatalf("MixExternalScores(%v): %v", alpha, err)
		}
		c, err := NewChainWithExternalScores(sub, mixed)
		if err != nil {
			t.Fatalf("NewChainWithExternalScores: %v", err)
		}
		res, err := c.Run(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		gap := 0.0
		for i := range res.Scores {
			gap += math.Abs(res.Scores[i] - ideal.Scores[i])
		}
		return gap
	}
	g0 := gapAt(0)
	g1 := gapAt(1)
	if g1 > 1e-8 {
		t.Errorf("alpha=1 gap %v, want ~0 (IdealRank)", g1)
	}
	ap, err := ApproxRank(sub, cfg)
	if err != nil {
		t.Fatalf("ApproxRank: %v", err)
	}
	apGap := 0.0
	for i := range ap.Scores {
		apGap += math.Abs(ap.Scores[i] - ideal.Scores[i])
	}
	if math.Abs(g0-apGap) > 1e-8 {
		t.Errorf("alpha=0 gap %v differs from ApproxRank gap %v", g0, apGap)
	}
	ghalf := gapAt(0.5)
	if ghalf > g0+1e-9 {
		t.Errorf("alpha=0.5 gap %v exceeds alpha=0 gap %v", ghalf, g0)
	}
}

// TestConfigValidation exercises the error paths of Config and the
// constructors.
func TestConfigValidation(t *testing.T) {
	_, sub := figureGraph(t)
	if _, err := ApproxRank(sub, Config{Epsilon: 1.5}); err == nil {
		t.Error("Epsilon=1.5 accepted")
	}
	if _, err := ApproxRank(sub, Config{Epsilon: -0.1}); err == nil {
		t.Error("negative epsilon accepted")
	}
	if _, err := ApproxRank(sub, Config{Tolerance: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := ApproxRank(sub, Config{MaxIterations: -2}); err == nil {
		t.Error("negative MaxIterations accepted")
	}
	if _, err := ApproxRank(nil, Config{}); err == nil {
		t.Error("nil subgraph accepted")
	}
	if _, err := IdealRank(sub, []float64{1, 2}, Config{}); err == nil {
		t.Error("short score vector accepted")
	}
	bad := make([]float64, 7)
	bad[4] = -1
	if _, err := IdealRank(sub, bad, Config{}); err == nil {
		t.Error("negative external score accepted")
	}
	zero := make([]float64, 7)
	zero[0] = 1 // local page only; external mass is zero
	if _, err := IdealRank(sub, zero, Config{}); err == nil {
		t.Error("zero external mass accepted")
	}
	if _, err := MixExternalScores(sub, make([]float64, 3), 0.5); err == nil {
		t.Error("short mix vector accepted")
	}
	ok := make([]float64, 7)
	for i := range ok {
		ok[i] = 1
	}
	if _, err := MixExternalScores(sub, ok, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
}

// TestTheorem2PerIteration checks the per-iteration form of Theorem 2 via
// testing/quick: for random graphs and random iteration counts m, the L1
// distance after m iterations is bounded by (ε+…+ε^m)·‖E−E_approx‖₁.
func TestTheorem2PerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	check := func(seed int64, mRaw uint8) bool {
		m := int(mRaw%20) + 1
		local := rand.New(rand.NewSource(seed))
		g, sub := randomSubgraph(t, local, 40+local.Intn(40), 3)
		gr, err := pagerank.Compute(g, pagerank.Options{Tolerance: 1e-13, MaxIterations: 5000})
		if err != nil {
			t.Fatalf("global PageRank: %v", err)
		}
		cfg := Config{Tolerance: 1e-30, MaxIterations: m} // exactly m iterations
		ideal, err := IdealRank(sub, gr.Scores, cfg)
		if err != nil {
			t.Fatalf("IdealRank: %v", err)
		}
		ap, err := ApproxRank(sub, cfg)
		if err != nil {
			t.Fatalf("ApproxRank: %v", err)
		}
		// A chain may hit an exact floating-point fixpoint before m
		// iterations; further iterations would not change it, so the
		// per-iteration bound at m still applies.
		if ideal.Iterations > m || ap.Iterations > m {
			t.Fatalf("expected at most %d iterations, got %d/%d", m, ideal.Iterations, ap.Iterations)
		}
		gap := 0.0
		for i := range ideal.Scores {
			gap += math.Abs(ideal.Scores[i] - ap.Scores[i])
		}
		extSum := 0.0
		for gid, s := range gr.Scores {
			if _, isLocal := sub.LocalID(graph.NodeID(gid)); !isLocal {
				extSum += s
			}
		}
		uni := 1.0 / float64(sub.External())
		eDist := 0.0
		for gid, s := range gr.Scores {
			if _, isLocal := sub.LocalID(graph.NodeID(gid)); !isLocal {
				eDist += math.Abs(s/extSum - uni)
			}
		}
		eps, geo := 0.85, 0.0
		pw := 1.0
		for i := 0; i < m; i++ {
			pw *= eps
			geo += pw
		}
		return gap <= geo*eDist+1e-9
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(rng.Int63())
			vals[1] = reflect.ValueOf(uint8(r.Uint32()))
		},
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
