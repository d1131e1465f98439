package pagerank

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

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

// slowRing is a bidirectional ring of n pages with one chord from page
// 0 to page n/2. The ring mixes slowly and the chord breaks its
// symmetry, so at damping 0.99 the power iteration's delta falls
// about 1% a round and stays far from zero for hundreds of rounds.
func slowRing(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.AddEdge(graph.NodeID(u), graph.NodeID((u+1)%n))
		b.AddEdge(graph.NodeID(u), graph.NodeID((u+n-1)%n))
	}
	b.AddEdge(0, graph.NodeID(n/2))
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestParallelAllocsFlat: computeParallel spawns its worker pool once
// per run, so a run's allocations do not grow with its iteration
// count. Respawning the workers every round would allocate every
// round. The mallocs are read from runtime.MemStats at GOMAXPROCS 2:
// testing.AllocsPerRun pins GOMAXPROCS to 1, where computeParallel
// falls back to computeFlat and no pool exists.
func TestParallelAllocsFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := slowRing(4000)
	run := func(maxIter int) func() int {
		return func() int {
			opts := Options{Parallelism: 2, Epsilon: 0.99, Tolerance: math.SmallestNonzeroFloat64, MaxIterations: maxIter}
			return computeOrDie(t, g, opts).Iterations
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

// TestParallelAgreement: parallel runs converge to the same vector as
// sequential ones, on unweighted and weighted graphs with dangling pages.
func TestParallelAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		g := randomTestGraph(rng, 500, 0.1)
		seq := computeOrDie(t, g, Options{Tolerance: 1e-11, MaxIterations: 5000})
		for _, workers := range []int{2, 3, 8} {
			par := computeOrDie(t, g, Options{Tolerance: 1e-11, MaxIterations: 5000, Parallelism: workers})
			if d := L1(seq.Scores, par.Scores); d > 1e-9 {
				t.Fatalf("trial %d workers %d: parallel differs by L1=%g", trial, workers, d)
			}
			if !par.Converged {
				t.Fatalf("trial %d workers %d: did not converge", trial, workers)
			}
		}
	}
}

// TestParallelWeighted: weighted graphs too.
func TestParallelWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	b := graph.NewBuilder(300)
	for u := 0; u < 300; u++ {
		d := 1 + rng.Intn(5)
		for e := 0; e < d; e++ {
			v := rng.Intn(300)
			if v != u {
				b.AddWeightedEdge(graph.NodeID(u), graph.NodeID(v), 0.3+rng.Float64())
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	seq := computeOrDie(t, g, Options{Tolerance: 1e-11, MaxIterations: 5000})
	par := computeOrDie(t, g, Options{Tolerance: 1e-11, MaxIterations: 5000, Parallelism: 4})
	if d := L1(seq.Scores, par.Scores); d > 1e-9 {
		t.Fatalf("weighted parallel differs by L1=%g", d)
	}
}

// TestParallelDeterministic: two runs with the same worker count are
// bit-identical. The pool is capped at GOMAXPROCS, so the test raises it
// to 4: on a 2-CPU host the race detector then still sees three workers
// beside the caller.
func TestParallelDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(73))
	g := randomTestGraph(rng, 400, 0.05)
	a := computeOrDie(t, g, Options{Parallelism: 4})
	b := computeOrDie(t, g, Options{Parallelism: 4})
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("parallel runs differ at %d", i)
		}
	}
}

// TestParallelNegativeSelectsCPUs: Parallelism < 0 must not error.
func TestParallelNegativeSelectsCPUs(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	g := randomTestGraph(rng, 100, 0.05)
	res := computeOrDie(t, g, Options{Parallelism: -1})
	if !res.Converged {
		t.Fatal("did not converge")
	}
}

// TestParallelMoreWorkersThanNodes: worker count is clamped.
func TestParallelMoreWorkersThanNodes(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	res := computeOrDie(t, g, Options{Parallelism: 16, Tolerance: 1e-10})
	for _, s := range res.Scores {
		if s <= 0.3 || s >= 0.4 {
			t.Fatalf("cycle scores wrong: %v", res.Scores)
		}
	}
}

// TestParallelInvalidCombos: parallelism cannot combine with the other
// schemes.
func TestParallelInvalidCombos(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 0}})
	bad := []Options{
		{Parallelism: 4, Method: MethodGaussSeidel},
		{Parallelism: 4, ExtrapolateEvery: 5},
		{Parallelism: 4, AdaptiveFreeze: 1e-4},
	}
	for i, o := range bad {
		if _, err := Compute(g, o); err == nil {
			t.Errorf("case %d: invalid combination accepted", i)
		}
	}
}
