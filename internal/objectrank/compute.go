package objectrank

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/numeric"
)

// Config carries the ObjectRank walk parameters. The zero value selects
// the customary settings (ε = 0.85, L1 tolerance 1e-5, ≤1000 iterations).
type Config struct {
	Epsilon       float64
	Tolerance     float64
	MaxIterations int
}

func (c *Config) fill() error {
	if c.Epsilon == 0 {
		c.Epsilon = numeric.DefaultDamping
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("objectrank: damping factor %v outside (0,1)", c.Epsilon)
	}
	if c.Tolerance == 0 {
		c.Tolerance = numeric.DefaultTolerance
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("objectrank: negative tolerance %v", c.Tolerance)
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 1000
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("objectrank: MaxIterations %d < 1", c.MaxIterations)
	}
	return nil
}

// Result is the outcome of an ObjectRank computation.
type Result struct {
	// Scores holds one score per object. Unlike PageRank these need not
	// sum to 1: authority leaks at objects whose total outgoing transfer
	// rate is below 1 (exact ObjectRank semantics).
	Scores     []float64
	Iterations int
	Converged  bool
	Elapsed    time.Duration
}

// Compute runs the exact ObjectRank fixpoint
//
//	r = ε·Aᵀ·r + (1−ε)·q
//
// where A carries the per-edge transfer weights (rate/outdeg-of-kind, NOT
// normalized to be stochastic) and q is the base-set distribution: 1/|B|
// on each object of baseSet, or uniform over all objects when baseSet is
// empty (global ObjectRank).
func Compute(d *DataGraph, baseSet []graph.NodeID, cfg Config) (*Result, error) {
	if d == nil || d.NumObjects() == 0 {
		return nil, fmt.Errorf("objectrank: empty data graph")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := d.NumObjects()
	q := make([]float64, n)
	if len(baseSet) == 0 {
		u := 1.0 / float64(n)
		for i := range q {
			q[i] = u
		}
	} else {
		share := 1.0 / float64(len(baseSet))
		for _, id := range baseSet {
			if int(id) >= n {
				return nil, fmt.Errorf("objectrank: base object %d out of range", id)
			}
			q[id] += share
		}
	}

	// The transfer matrix as a kernel push snapshot with no dangling
	// states, so a sweep computes (1−ε)·q + ε·Aᵀ·cur. Rows keep the
	// edges' order: off[u+1] counts u's edges, then holds u's row start
	// and advances to its end as the row fills.
	off := make([]int64, n+1)
	for _, e := range d.edges {
		off[e.from+1]++
	}
	var at int64
	for u := 1; u <= n; u++ {
		at, off[u] = at+off[u], at
	}
	a := kernel.PushCSR{N: n, OutOff: off,
		OutDst: make([]uint32, len(d.edges)), OutProb: make([]float64, len(d.edges))}
	for _, e := range d.edges {
		w, err := d.transferWeight(e)
		if err != nil {
			return nil, err
		}
		k := off[e.from+1]
		off[e.from+1]++
		a.OutDst[k], a.OutProb[k] = e.to, w
	}

	start := time.Now()
	cur := make([]float64, n)
	copy(cur, q)
	next := make([]float64, n)
	eps := cfg.Epsilon
	deltas, converged, err := kernel.Iterate(context.Background(), cfg.MaxIterations, cfg.Tolerance, func() float64 {
		delta := a.Sweep(next, cur, q, q, eps)
		cur, next = next, cur
		return delta
	})
	if err != nil {
		return nil, fmt.Errorf("objectrank: %w", err)
	}
	return &Result{Scores: cur, Iterations: len(deltas), Converged: converged, Elapsed: time.Since(start)}, nil
}

// ComputeQuery is Compute seeded by the keyword base set of query. It
// returns an error when no object matches the query (an empty base set
// would silently compute the global ranking instead).
func ComputeQuery(d *DataGraph, query string, cfg Config) (*Result, error) {
	base := d.BaseSet(query)
	if len(base) == 0 {
		return nil, fmt.Errorf("objectrank: no objects match query %q", query)
	}
	return Compute(d, base, cfg)
}
