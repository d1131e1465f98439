// Package pagerank implements the PageRank power iteration used both as
// the ground-truth global computation and as the inner engine of the
// local-PageRank, LPR2 and stochastic-complementation baselines.
//
// The iteration follows the paper's formulation
//
//	R = ε·Aᵀ·R + (1−ε)·P
//
// with damping ε (default 0.85), personalization vector P (default
// uniform), and dangling pages complemented with jumps: a page without
// out-links behaves as if it linked to every page according to the
// dangling distribution (default: the personalization vector). Convergence
// is declared when the L1 norm of the change drops below the tolerance
// (the paper uses 1e-5).
package pagerank

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/kernel"
	"repro/internal/numeric"
)

// DirectedGraph is the view of a graph the engine needs: the kernel's
// snapshot source, under the name this package has always used.
// *graph.Graph satisfies it. The Λ-extended chains in internal/core are
// not DirectedGraphs: they store their collapsed matrix as a
// kernel.PushCSR and run the same kernel sweeps and convergence loop on
// it.
type DirectedGraph = kernel.Source

// Method selects the iteration scheme.
type Method int

const (
	// MethodPower is the standard Jacobi-style power iteration (the
	// paper's formulation). Default.
	MethodPower Method = iota
	// MethodGaussSeidel updates scores in place, pulling along in-edges
	// so each page sees the current sweep's values for already-updated
	// pages. Typically converges in fewer sweeps than MethodPower for the
	// same tolerance. The kernel snapshot materializes the in-adjacency,
	// so any DirectedGraph works.
	MethodGaussSeidel
)

// Options configures a PageRank computation. The zero value selects the
// paper's settings.
type Options struct {
	// Epsilon is the damping factor (probability of following links).
	// Default 0.85.
	Epsilon float64
	// Tolerance is the L1 convergence threshold. Default 1e-5.
	Tolerance float64
	// MaxIterations bounds the power iteration. Default 1000.
	MaxIterations int
	// Personalization is the random-jump distribution P. nil selects the
	// uniform vector. Must have length NumNodes and sum to 1 (±1e-9).
	Personalization []float64
	// DanglingDist is the distribution dangling pages jump to. nil selects
	// the personalization vector.
	DanglingDist []float64
	// Start is the initial vector. nil selects the personalization vector.
	// It is not modified.
	Start []float64
	// ExtrapolateEvery, when positive, applies Aitken quadratic
	// extrapolation every that many iterations (Kamvar et al., WWW 2003),
	// an acceleration that suppresses the second eigenvector term. Only
	// valid with MethodPower and without AdaptiveFreeze.
	ExtrapolateEvery int
	// Method selects the iteration scheme (default MethodPower).
	Method Method
	// Parallelism selects the number of workers for the power iteration:
	// 0 or 1 runs sequentially, k > 1 uses up to k workers (at most
	// GOMAXPROCS), and a negative value selects the CPU count. The
	// parallel scheme is a pull sweep over edge-balanced target ranges:
	// the per-iteration iterate is bit-identical across worker counts
	// and runs are bit-deterministic for a fixed Parallelism; only the
	// convergence test's delta sum reassociates across values (≪ any
	// practical tolerance). Only MethodPower without extrapolation or
	// adaptive freezing parallelizes.
	Parallelism int
	// AdaptiveFreeze, when positive, enables adaptive PageRank (Kamvar et
	// al., "Adaptive methods for the computation of PageRank", 2003):
	// once a page's score changes by less than AdaptiveFreeze·(1/N) for
	// two consecutive iterations it is frozen — its outgoing contribution
	// is folded into a fixed base vector and it is no longer recomputed.
	// Only valid with MethodPower; the final vector agrees with the plain
	// iteration up to roughly N·AdaptiveFreeze in L1.
	AdaptiveFreeze float64
	// Deadline, when positive, bounds the computation's wall-clock time:
	// ComputeCtx derives its context with context.WithTimeout(ctx,
	// Deadline) and an unconverged run returns context.DeadlineExceeded
	// instead of burning the full MaxIterations budget. Zero means no
	// deadline.
	Deadline time.Duration
}

func (o *Options) fill(n int) error {
	if o.Epsilon == 0 {
		o.Epsilon = numeric.DefaultDamping
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("pagerank: damping factor %v outside (0,1)", o.Epsilon)
	}
	if o.Tolerance == 0 {
		o.Tolerance = numeric.DefaultTolerance
	}
	if o.Tolerance < 0 {
		return fmt.Errorf("pagerank: negative tolerance %v", o.Tolerance)
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 1000
	}
	if o.MaxIterations < 1 {
		return fmt.Errorf("pagerank: MaxIterations %d < 1", o.MaxIterations)
	}
	for name, v := range map[string][]float64{
		"Personalization": o.Personalization,
		"DanglingDist":    o.DanglingDist,
		"Start":           o.Start,
	} {
		if v == nil {
			continue
		}
		if len(v) != n {
			return fmt.Errorf("pagerank: %s has length %d, want %d", name, len(v), n)
		}
		sum := 0.0
		for _, x := range v {
			if x < 0 || math.IsNaN(x) {
				return fmt.Errorf("pagerank: %s has invalid entry %v", name, x)
			}
			sum += x
		}
		if math.Abs(sum-1) > numeric.SumTolerance {
			return fmt.Errorf("pagerank: %s sums to %v, want 1", name, sum)
		}
	}
	if o.Method != MethodPower && o.Method != MethodGaussSeidel {
		return fmt.Errorf("pagerank: unknown method %d", o.Method)
	}
	if o.AdaptiveFreeze < 0 {
		return fmt.Errorf("pagerank: negative AdaptiveFreeze %v", o.AdaptiveFreeze)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("pagerank: negative Deadline %v", o.Deadline)
	}
	if o.Method == MethodGaussSeidel && (o.ExtrapolateEvery > 0 || o.AdaptiveFreeze > 0) {
		return fmt.Errorf("pagerank: Gauss–Seidel cannot combine with extrapolation or adaptive freezing")
	}
	if o.AdaptiveFreeze > 0 && o.ExtrapolateEvery > 0 {
		return fmt.Errorf("pagerank: adaptive freezing cannot combine with extrapolation")
	}
	if o.Parallelism < 0 {
		o.Parallelism = DefaultParallelism()
	}
	if o.Parallelism > 1 && (o.Method != MethodPower || o.ExtrapolateEvery > 0 || o.AdaptiveFreeze > 0) {
		return fmt.Errorf("pagerank: parallelism requires plain power iteration")
	}
	return nil
}

// Result carries the output of a ranking computation. All rankers in this
// repository return this shape.
type Result struct {
	// Scores is the stationary distribution (sums to 1).
	Scores []float64
	// Iterations is the number of power-iteration steps performed.
	Iterations int
	// Converged reports whether the tolerance was reached before
	// MaxIterations.
	Converged bool
	// Elapsed is the wall-clock duration of the iteration.
	Elapsed time.Duration
	// Deltas[i] is the L1 change after iteration i+1 (for convergence
	// plots and the adaptive experiments).
	Deltas []float64
	// FrozenPages is the number of pages frozen by the adaptive method at
	// termination (0 unless AdaptiveFreeze was set).
	FrozenPages int
}

// Compute runs the PageRank power iteration on g. It is ComputeCtx with
// context.Background() — uncancellable; long-running callers should
// prefer ComputeCtx.
func Compute(g DirectedGraph, opts Options) (*Result, error) {
	return ComputeCtx(context.Background(), g, opts)
}

// ComputeCtx is Compute under a context: every iteration scheme checks
// ctx after every iteration (kernel.Iterate) and, when cancelled (or
// when opts.Deadline expires), returns nil and ctx's error wrapped with
// the iteration reached.
func ComputeCtx(ctx context.Context, g DirectedGraph, opts Options) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("pagerank: empty graph")
	}
	if err := opts.fill(n); err != nil {
		return nil, err
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	if opts.Method == MethodGaussSeidel {
		return computeGaussSeidel(ctx, g, opts)
	}
	if opts.AdaptiveFreeze > 0 {
		return computeAdaptive(ctx, g, opts)
	}
	return computePower(ctx, g, opts)
}

// jumpVectors materializes the personalization and dangling
// distributions as plain slices for the flat kernels: p is the caller's
// Personalization or a pooled uniform vector, d is DanglingDist or p.
// pooled is the buffer to hand back with kernel.PutVec when done (nil —
// a no-op Put — when the caller supplied its own Personalization);
// callers defer the Put directly rather than through a closure, which
// would cost a heap allocation per call.
func jumpVectors(n int, opts *Options) (p, d, pooled []float64) {
	p = opts.Personalization
	if p == nil {
		pooled = kernel.GetVec(n)
		u := 1.0 / float64(n)
		for i := range pooled {
			pooled[i] = u
		}
		p = pooled
	}
	d = opts.DanglingDist
	if d == nil {
		d = p
	}
	return p, d, pooled
}

// initStart fills cur with the start vector: opts.Start if set, else p.
func initStart(cur, p []float64, opts *Options) {
	if opts.Start != nil {
		copy(cur, opts.Start)
	} else {
		copy(cur, p)
	}
}

// iterate runs step through kernel.Iterate under opts' budget and
// tolerance, naming the engine in a cancellation error.
func iterate(ctx context.Context, opts *Options, step func() float64) ([]float64, bool, error) {
	deltas, converged, err := kernel.Iterate(ctx, opts.MaxIterations, opts.Tolerance, step)
	if err != nil {
		return nil, false, fmt.Errorf("pagerank: %w", err)
	}
	return deltas, converged, nil
}

// finishResult normalizes the final iterate and copies it out of the
// pooled working buffer into an exact-size result.
func finishResult(cur, deltas []float64, converged bool, start time.Time) *Result {
	normalize(cur)
	scores := make([]float64, len(cur))
	copy(scores, cur)
	return &Result{Scores: scores, Iterations: len(deltas), Converged: converged,
		Deltas: deltas, Elapsed: time.Since(start)}
}

// computePower is the power iteration on the flat kernel: the graph is
// snapshot once into frozen CSR slices (aliased straight from
// *graph.Graph storage when unweighted), and every iteration is pure
// slice arithmetic — zero interface calls and zero divisions on the
// per-edge path. Scratch buffers come from the kernel pools and are
// recycled on every exit path.
//
// A run whose Parallelism kernel.PoolParts leaves above one part PULLS
// through a kernel.SweepPool spawned once for the whole run, each
// worker owning a disjoint, edge-count-balanced range of target nodes:
// no shared accumulators, and an iterate bit-identical across worker
// counts. Only the L1 delta (summed per range, then in range order)
// reassociates, which can move the convergence test by at most the
// float error of one sum; for a fixed part count the run is
// bit-deterministic. Every other run PUSHES along a kernel.PushCSR,
// which is faster on one worker: its random accesses ride the store
// buffer instead of stalling the accumulation chain.
func computePower(ctx context.Context, g DirectedGraph, opts Options) (*Result, error) {
	n := g.NumNodes()
	start := time.Now()
	var push *kernel.PushCSR
	var pool *kernel.SweepPool
	if kernel.PoolParts(opts.Parallelism) > 1 {
		pull := kernel.Snapshot(g)
		defer pull.Release()
		pool = kernel.NewSweepPool(pull, opts.Parallelism)
		defer pool.Close()
	} else {
		push = kernel.PushSnapshot(g)
		defer push.Release()
	}
	p, d, pooled := jumpVectors(n, &opts)
	defer kernel.PutVec(pooled)

	// Direct defers with the buffer evaluated at the defer site: cur and
	// next swap names each iteration, but both backing arrays go back to
	// the pool regardless of which name they end under — and no closure
	// is allocated to capture them.
	cur := kernel.GetVec(n)
	next := kernel.GetVec(n)
	defer kernel.PutVec(cur)
	defer kernel.PutVec(next)
	initStart(cur, p, &opts)

	var prev1, prev2 []float64
	if opts.ExtrapolateEvery > 0 {
		prev1 = kernel.GetVec(n)
		prev2 = kernel.GetVec(n)
		defer kernel.PutVec(prev1)
		defer kernel.PutVec(prev2)
	}

	eps := opts.Epsilon
	iter := 0
	deltas, converged, err := iterate(ctx, &opts, func() float64 {
		var delta float64
		if pool != nil {
			delta = pool.Sweep(ctx, next, cur, p, d, eps)
		} else {
			delta = push.Sweep(next, cur, p, d, eps)
		}
		if iter++; opts.ExtrapolateEvery > 0 {
			if iter > 2 && iter%opts.ExtrapolateEvery == 0 {
				extrapolate(next, prev1, prev2)
			}
			copy(prev2, prev1)
			copy(prev1, next)
		}
		cur, next = next, cur
		return delta
	})
	if err != nil {
		return nil, err
	}
	return finishResult(cur, deltas, converged, start), nil
}

// DefaultParallelism returns the worker count used by Parallelism < 0:
// the machine's CPU count.
func DefaultParallelism() int { return runtime.NumCPU() }

// extrapolate applies componentwise Aitken Δ² extrapolation in place:
// x* = xₖ − (Δxₖ)²/(Δ²xₖ) with xₖ₋₁ = prev1 and xₖ₋₂ = prev2, then
// renormalizes. Components with a vanishing second difference are left
// unchanged, and any negative extrapolated value is clamped to the
// un-extrapolated one (the iterate must stay a distribution).
//
//arlint:hot
func extrapolate(x, prev1, prev2 []float64) {
	for i := range x {
		d1 := prev1[i] - prev2[i]
		d2 := x[i] - 2*prev1[i] + prev2[i]
		if math.Abs(d2) < numeric.DenominatorGuard {
			continue
		}
		e := x[i] - d1*d1/d2
		if e > 0 && !math.IsNaN(e) && !math.IsInf(e, 0) {
			x[i] = e
		}
	}
	normalize(x)
}

// normalize rescales v to sum to 1 (no-op on a zero vector).
//
//arlint:hot
func normalize(v []float64) {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum <= 0 {
		return
	}
	inv := 1.0 / sum
	for i := range v {
		v[i] *= inv
	}
}

// Uniform returns the uniform distribution of length n.
func Uniform(n int) []float64 {
	p := make([]float64, n)
	u := 1.0 / float64(n)
	for i := range p {
		p[i] = u
	}
	return p
}

// L1 returns the L1 distance Σ|a[i]−b[i]|. Vectors of different lengths
// are incomparable and have distance +Inf — loud under any tolerance
// check, without panicking inside a serving process.
//
//arlint:hot
func L1(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	d := 0.0
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}
