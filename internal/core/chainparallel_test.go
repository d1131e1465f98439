package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// testWeb is benchWeb under a test name: a deterministic random web
// with a subgraph over the first quarter.
func testWeb(t *testing.T, n, outDeg int) (*graph.Graph, *graph.Subgraph) {
	t.Helper()
	return benchWeb(t, n, outDeg)
}

func mustChain(t *testing.T, sub *graph.Subgraph) *ExtendedChain {
	t.Helper()
	chain, err := NewApproxChain(sub)
	if err != nil {
		t.Fatalf("NewApproxChain: %v", err)
	}
	return chain
}

// TestChainParallelDeterministic: for a FIXED worker count, two runs of
// the parallel pull path produce bit-identical scores — the determinism
// contract the kernel's disjoint-output-range design guarantees. The
// pool is capped at GOMAXPROCS, so the test raises it to 4: on a 2-CPU
// host the race detector then still sees three workers beside the
// caller.
func TestChainParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, sub := testWeb(t, 2000, 6)
	chain := mustChain(t, sub)
	cfg := Config{Tolerance: 1e-10, Parallelism: 4}
	a, err := chain.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chain.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Lambda != b.Lambda || a.Iterations != b.Iterations {
		t.Fatalf("runs differ: lambda %v vs %v, iters %d vs %d", a.Lambda, b.Lambda, a.Iterations, b.Iterations)
	}
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("scores[%d] not bit-identical: %v vs %v", i, a.Scores[i], b.Scores[i])
		}
	}
}

// TestChainParallelAgreement: the sequential push sweep and the
// parallel pull sweep at workers 2/4/8 agree within tight tolerance
// (they differ only by floating-point reassociation of per-state
// in-rows), and every run converges to a proper distribution. Runs
// capped at one part take the push sweep, so GOMAXPROCS is raised to 8
// for every worker count to pull on any host.
func TestChainParallelAgreement(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	_, sub := testWeb(t, 2000, 6)
	chain := mustChain(t, sub)
	base, err := chain.RunCtx(context.Background(), Config{Tolerance: 1e-10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		res, err := chain.RunCtx(context.Background(), Config{Tolerance: 1e-10, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Converged {
			t.Fatalf("workers=%d did not converge", workers)
		}
		l1 := math.Abs(res.Lambda - base.Lambda)
		for i := range res.Scores {
			l1 += math.Abs(res.Scores[i] - base.Scores[i])
		}
		if l1 > 1e-9 {
			t.Errorf("workers=%d: L1 distance to sequential %g > 1e-9", workers, l1)
		}
		sum := res.Lambda
		for _, s := range res.Scores {
			sum += s
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workers=%d: scores+lambda sum to %v, want 1", workers, sum)
		}
	}
}

// TestChainParallelNegativeSelectsCPUs: Parallelism < 0 resolves to the
// CPU count and runs the parallel path successfully.
func TestChainParallelNegativeSelectsCPUs(t *testing.T) {
	_, sub := figureGraph(t)
	chain := mustChain(t, sub)
	res, err := chain.RunCtx(context.Background(), Config{Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("run did not converge")
	}
}

// TestChainParallelPreCancelled: a context that is already done yields
// no result on the parallel path, wrapping the context's error.
func TestChainParallelPreCancelled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, sub := figureGraph(t)
	chain := mustChain(t, sub)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := chain.RunCtx(ctx, Config{Parallelism: 4})
	if err == nil {
		t.Fatal("pre-cancelled context produced a result")
	}
	if res != nil {
		t.Errorf("got partial result alongside error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestChainParallelCancelledMidRun reuses the countdown context to land
// a cancellation mid-run: the parallel path polls ctx at worker start
// and after every iteration's barrier, so the run must abort with the
// context error and no partial scores. The exact iteration depends on
// scheduling (several workers poll per iteration), so unlike the
// sequential test only the loose contract is asserted.
func TestChainParallelCancelledMidRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, sub := testWeb(t, 2000, 6)
	chain := mustChain(t, sub)
	res, err := chain.RunCtx(newCountdown(10), Config{Tolerance: 1e-300, MaxIterations: 50, Parallelism: 4})
	if err == nil {
		t.Fatal("cancelled run converged")
	}
	if res != nil {
		t.Errorf("got partial result alongside error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestRankManyAllocBudget pins the pooling win down: once the kernel
// pools are warm, a RankMany batch must stay within a small per-chain
// allocation budget (topology + exact-size result slices — no
// per-iteration buffers). The budget has ~40% headroom over the
// measured steady state but sits far below the ~36 allocs/chain the
// unpooled implementation burned.
func TestRankManyAllocBudget(t *testing.T) {
	g, _ := testWeb(t, 4000, 6)
	gctx := NewContext(g)
	parts := make([]*graph.Subgraph, 4)
	per := 1000
	for p := range parts {
		local := make([]graph.NodeID, per)
		for i := range local {
			local[i] = graph.NodeID(p*per + i)
		}
		sub, err := graph.NewSubgraph(g, local)
		if err != nil {
			t.Fatal(err)
		}
		parts[p] = sub
	}
	cfg := Config{Tolerance: 1e-8}
	const perChainBudget = 25
	avg := testing.AllocsPerRun(5, func() {
		if _, err := RankMany(gctx, parts, cfg, 1); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(perChainBudget * len(parts)); avg > budget {
		t.Errorf("RankMany allocated %.1f times per batch, budget %.0f (%d chains × %d)",
			avg, budget, len(parts), perChainBudget)
	}
}

// runMallocs warms run with one call, then returns the fewest heap
// allocations over three more calls (a GC may empty the kernel's
// buffer pools between calls) and the iterations the last call ran.
func runMallocs(run func() int) (mallocs uint64, iters int) {
	run()
	mallocs = math.MaxUint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		iters = run()
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
	}
	return mallocs, iters
}

// TestChainParallelAllocsFlat: a parallel run spawns its worker pool
// once per run, so a run's allocations do not grow with its iteration
// count. Respawning the workers every round would allocate every
// round. The mallocs are read from runtime.MemStats at GOMAXPROCS 2:
// testing.AllocsPerRun pins GOMAXPROCS to 1, where the run takes the
// push sweep and spawns nothing.
func TestChainParallelAllocsFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// A bidirectional ring with one chord, ranked over its first
	// quarter: the local path mixes slowly, so at damping 0.99 the delta
	// stays far from zero for hundreds of rounds.
	const n = 4000
	edges := make([][2]graph.NodeID, 0, 2*n+1)
	for u := 0; u < n; u++ {
		edges = append(edges, [2]graph.NodeID{graph.NodeID(u), graph.NodeID((u + 1) % n)},
			[2]graph.NodeID{graph.NodeID(u), graph.NodeID((u + n - 1) % n)})
	}
	edges = append(edges, [2]graph.NodeID{0, n / 2})
	local := make([]graph.NodeID, n/4)
	for i := range local {
		local[i] = graph.NodeID(i)
	}
	sub, err := graph.NewSubgraph(graph.MustFromEdges(n, edges), local)
	if err != nil {
		t.Fatal(err)
	}
	chain := mustChain(t, sub)
	run := func(maxIter int) func() int {
		return func() int {
			cfg := Config{Parallelism: 2, Epsilon: 0.99, Tolerance: math.SmallestNonzeroFloat64, MaxIterations: maxIter}
			res, err := chain.RunCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.Iterations
		}
	}
	shortM, shortIt := runMallocs(run(10))
	longM, longIt := runMallocs(run(210))
	if longIt-shortIt < 100 {
		t.Fatalf("long run stopped after %d iterations, short after %d: too few to measure", longIt, shortIt)
	}
	t.Logf("mallocs %d → %d over %d → %d iterations", shortM, longM, shortIt, longIt)
	if grew := int64(longM) - int64(shortM); grew*10 >= int64(longIt-shortIt) {
		t.Errorf("mallocs grew %d → %d over %d → %d iterations: the parallel loop allocates per round",
			shortM, longM, shortIt, longIt)
	}
}
