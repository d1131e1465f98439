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
// transition probabilities, so the scheme no longer requires the graph
// to implement InEdgeGraph and the inner loop performs no interface
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
func computeAdaptive(ctx context.Context, g DirectedGraph, opts Options) (*Result, error) {
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
