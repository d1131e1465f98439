package pagerank

import (
	"context"
	"math"
	"time"

	"repro/internal/kernel"
)

// computeGaussSeidel runs the pull-based Gauss–Seidel sweep on the flat
// kernel snapshot: pages are updated in id order and each update reads
// the freshest available values of its in-neighbours (already-updated
// pages contribute this sweep's value, later pages last sweep's). The
// aggregate dangling mass is also kept fresh: it is adjusted in place
// the moment a dangling page's score changes, so the dangling component
// converges at the Gauss–Seidel rate rather than lagging a full sweep
// behind. The snapshot materializes the in-adjacency with precomputed
// transition probabilities, so the inner loop performs no interface
// calls or divisions.
func computeGaussSeidel(ctx context.Context, g DirectedGraph, opts Options) (*Result, error) {
	n := g.NumNodes()
	start := time.Now()
	csr := kernel.Snapshot(g)
	defer csr.Release()
	p, d, pooled := jumpVectors(n, &opts)
	defer kernel.PutVec(pooled)

	x := kernel.GetVec(n)
	defer kernel.PutVec(x)
	initStart(x, p, &opts)

	// Dense dangling membership for the in-place mass update (the sweep
	// needs an O(1) "is v dangling?" answer mid-row).
	isDangling := make([]bool, n)
	for _, u := range csr.DanglingIdx {
		isDangling[u] = true
	}

	eps := opts.Epsilon
	danglingMass := csr.DanglingMass(x)
	off, srcs, prob := csr.InOff, csr.InSrc, csr.InProb
	deltas, converged, err := iterate(ctx, &opts, func() float64 {
		delta := 0.0
		for v := 0; v < n; v++ {
			s := 0.0
			end := off[v+1]
			for k := off[v]; k < end; k++ {
				s += x[srcs[k]] * prob[k]
			}
			acc := (1-eps)*p[v] + eps*danglingMass*d[v] + eps*s
			delta += math.Abs(acc - x[v])
			if isDangling[v] {
				danglingMass += acc - x[v]
			}
			x[v] = acc
		}
		return delta
	})
	if err != nil {
		return nil, err
	}
	return finishResult(x, deltas, converged, start), nil
}

// computeAdaptive runs the power iteration with adaptive freezing (Kamvar
// et al., 2003): a page whose score moved by less than
// AdaptiveFreeze·(1/N) in two consecutive iterations is frozen. A frozen
// page's score no longer changes, so its outgoing contribution — and, for
// dangling pages, its share of the dangling mass — is folded once into a
// fixed base vector and the page drops out of the per-iteration work. On
// web-like graphs most pages freeze early, cutting per-iteration cost
// while perturbing the fixpoint by at most ~N·AdaptiveFreeze in L1.
// The graph is read through a kernel.PushSnapshot, as computePower's
// sequential path reads it.
func computeAdaptive(ctx context.Context, g DirectedGraph, opts Options) (*Result, error) {
	n := g.NumNodes()
	start := time.Now()
	csr := kernel.PushSnapshot(g)
	defer csr.Release()
	p, d, pooled := jumpVectors(n, &opts)
	defer kernel.PutVec(pooled)

	// frozenBase[v] accumulates ε·x_u·A[u][v] over frozen u (link part);
	// frozenDangling accumulates the scores of frozen dangling pages.
	cur := kernel.GetVec(n)
	next := kernel.GetVec(n)
	frozenBase := kernel.GetVec(n)
	defer kernel.PutVec(cur)
	defer kernel.PutVec(next)
	defer kernel.PutVec(frozenBase)
	initStart(cur, p, &opts)
	clear(frozenBase)
	frozenDangling := 0.0
	frozen := make([]bool, n)
	small := make([]uint8, n) // consecutive small-delta count
	nFrozen := 0

	threshold := opts.AdaptiveFreeze / float64(n)
	eps := opts.Epsilon
	deltas, converged, err := iterate(ctx, &opts, func() float64 {
		danglingMass := 0.0
		for _, u := range csr.DanglingIdx {
			if !frozen[u] {
				danglingMass += cur[u]
			}
		}
		danglingMass += frozenDangling
		for v := 0; v < n; v++ {
			if !frozen[v] {
				next[v] = (1-eps)*p[v] + eps*danglingMass*d[v] + frozenBase[v]
			}
		}
		for u := 0; u < n; u++ {
			if !frozen[u] && cur[u] != 0 {
				pushActive(csr, next, frozen, u, eps*cur[u])
			}
		}

		delta := 0.0
		for v := 0; v < n; v++ {
			if frozen[v] {
				continue
			}
			dv := math.Abs(next[v] - cur[v])
			delta += dv
			cur[v] = next[v]
			if dv < threshold {
				small[v]++
			} else {
				small[v] = 0
			}
		}

		// Freeze pages that have been stable twice in a row, folding their
		// now-constant contributions into the base. A snapshot row is
		// empty exactly when its page is dangling.
		for u := 0; u < n; u++ {
			if frozen[u] || small[u] < 2 {
				continue
			}
			frozen[u] = true
			nFrozen++
			if csr.OutOff[u] == csr.OutOff[u+1] {
				frozenDangling += cur[u]
			} else {
				pushActive(csr, frozenBase, frozen, u, eps*cur[u])
			}
		}
		return delta
	})
	if err != nil {
		return nil, err
	}
	res := finishResult(cur, deltas, converged, start)
	res.FrozenPages = nFrozen
	return res, nil
}

// pushActive adds mass·A[u][v] into acc[v] for each out-edge u→v whose
// target is not frozen (a frozen target's acc slot is never read
// again). A uniform row divides mass by its out-degree once per source,
// as a walk over the graph's rows does; a weighted row multiplies by
// each edge's probability.
//
//arlint:hot
func pushActive(c *kernel.PushCSR, acc []float64, frozen []bool, u int, mass float64) {
	lo, hi := c.OutOff[u], c.OutOff[u+1]
	row := c.OutDst[lo:hi]
	if c.OutProb == nil {
		if len(row) == 0 {
			return
		}
		share := mass / float64(len(row))
		for _, v := range row {
			if !frozen[v] {
				acc[v] += share
			}
		}
		return
	}
	prob := c.OutProb[lo:hi]
	for k, v := range row {
		if !frozen[v] {
			acc[v] += mass * prob[k]
		}
	}
}
