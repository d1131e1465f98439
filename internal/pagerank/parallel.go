package pagerank

import (
	"context"
	"runtime"
	"time"

	"repro/internal/kernel"
)

// computeParallel runs the power iteration with a persistent worker
// pool on the flat pull kernel. The graph is snapshot once into frozen
// CSR slices and a kernel.SweepPool is spawned once for the whole run;
// each round every worker owns a disjoint, edge-count-balanced range of
// TARGET nodes and pulls contributions along the materialized
// in-adjacency — reading the immutable cur, writing only its own slice
// of next. Spawning the team once instead of once per iteration
// removes one goroutine creation + WaitGroup churn and its allocations
// per worker per round; the per-worker partial deltas live in
// cache-line-padded pool slots, one line per worker, not adjacent
// elements of a shared array whose line every worker would write.
//
// The requested Parallelism is capped at runtime.GOMAXPROCS(0): parts
// beyond the schedulable CPUs cannot run concurrently and only add
// barrier traffic. When the cap leaves a single effective worker —
// notably on a single-CPU machine — the partitioned pull sweep cannot
// beat the sequential PUSH kernel (same arithmetic, faster memory
// behavior), so the computation delegates to computeFlat outright.
//
// Determinism: every next[v] is accumulated over v's whole in-row in
// CSR order no matter how targets are partitioned, so the per-iteration
// ITERATE is bit-identical across worker counts; only the L1 delta
// (summed per range, then in range order) reassociates, which can move
// the convergence test by at most the float error of one sum. For a
// fixed effective worker count the whole run is bit-deterministic.
//
// Cancellation is checked after each iteration's barrier (the rounds
// are bounded, so there is nothing long-lived to interrupt mid-sweep);
// each worker also early-outs when ctx is already done so a cancelled
// batch drains without scanning its range.
func computeParallel(ctx context.Context, g DirectedGraph, opts Options) (*Result, error) {
	parts := min(opts.Parallelism, runtime.GOMAXPROCS(0))
	if parts <= 1 {
		return computeFlat(ctx, g, opts)
	}

	n := g.NumNodes()
	start := time.Now()
	csr := kernel.Snapshot(g)
	defer csr.Release()
	p, d, pooled := jumpVectors(n, &opts)
	defer kernel.PutVec(pooled)

	// Buffers evaluated at the defer site: the cur/next swap only moves
	// names, both backing arrays return to the pool either way.
	cur := kernel.GetVec(n)
	next := kernel.GetVec(n)
	defer kernel.PutVec(cur)
	defer kernel.PutVec(next)
	initStart(cur, p, &opts)

	// PartitionByEdges clamps parts on tiny graphs; size the pool to the
	// partition it actually produced. The pool outlives the whole
	// convergence loop — its workers are spawned here, once.
	bounds := kernel.PartitionByEdges(csr.InOff, parts)
	pool := kernel.NewSweepPool(len(bounds) - 1)
	defer pool.Close()

	// Uniform snapshots take the scaled sweep (see computeFlat): the
	// pre-scale runs once on the coordinating goroutine, the workers then
	// share the read-only scaled vector.
	var scaled []float64
	if csr.Uniform() {
		scaled = kernel.GetVec(n)
		defer kernel.PutVec(scaled)
	}

	eps := opts.Epsilon
	deltas, converged, err := iterate(ctx, &opts, func() float64 {
		var delta float64
		if scaled != nil {
			csr.ScaleInto(scaled, cur)
			delta = pool.SweepScaled(ctx, csr, next, scaled, cur, p, d, eps, csr.DanglingMass(cur), bounds)
		} else {
			delta = pool.Sweep(ctx, csr, next, cur, p, d, eps, csr.DanglingMass(cur), bounds)
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
