// Package hits implements Kleinberg's HITS algorithm (JACM 1999) — the
// other seminal link-analysis method the paper's introduction discusses.
// HITS separates each page's role into a hub score (the value of its
// outgoing links) and an authority score (the endorsement it receives),
// computed as the mutually recursive fixpoint
//
//	auth(v) = Σ_{u→v} hub(u),   hub(u) = Σ_{u→v} auth(v),
//
// normalized each iteration. Like local PageRank, HITS is typically run
// on a query-focused subgraph; the package therefore works on any
// *graph.Graph, including induced subgraphs.
package hits

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/numeric"
)

// Config parameterizes the HITS iteration. The zero value selects an L1
// convergence threshold of 1e-8 and at most 1000 iterations.
type Config struct {
	// Tolerance is the combined L1 change threshold of the two vectors.
	Tolerance float64
	// MaxIterations bounds the iteration.
	MaxIterations int
}

func (c *Config) fill() error {
	if c.Tolerance == 0 {
		c.Tolerance = numeric.TightTolerance
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("hits: negative tolerance %v", c.Tolerance)
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 1000
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("hits: MaxIterations %d < 1", c.MaxIterations)
	}
	return nil
}

// Result carries the two HITS score vectors, each normalized to sum 1.
type Result struct {
	Authorities []float64
	Hubs        []float64
	Iterations  int
	Converged   bool
	Elapsed     time.Duration
}

// Compute runs HITS on g. Edge weights, when present, weight the mutual
// reinforcement (a weighted endorsement counts proportionally).
func Compute(g *graph.Graph, cfg Config) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("hits: nil graph")
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	start := time.Now()

	auth := make([]float64, n)
	hub := make([]float64, n)
	for i := range auth {
		auth[i] = 1.0 / float64(n)
		hub[i] = 1.0 / float64(n)
	}
	newAuth := make([]float64, n)
	newHub := make([]float64, n)

	deltas, converged, err := kernel.Iterate(context.Background(), cfg.MaxIterations, cfg.Tolerance, func() float64 {
		authSweep(g, newAuth, hub)
		normalize(newAuth)
		// The hub update uses the fresh authorities — the standard
		// in-order HITS iteration.
		hubSweep(g, newHub, newAuth)
		normalize(newHub)

		delta := 0.0
		for i := 0; i < n; i++ {
			delta += math.Abs(newAuth[i]-auth[i]) + math.Abs(newHub[i]-hub[i])
		}
		auth, newAuth = newAuth, auth
		hub, newHub = newHub, hub
		return delta
	})
	if err != nil {
		return nil, fmt.Errorf("hits: %w", err)
	}
	return &Result{Authorities: auth, Hubs: hub, Iterations: len(deltas), Converged: converged,
		Elapsed: time.Since(start)}, nil
}

// authSweep computes one authority update, auth ← Aᵀ·hub: each state
// accumulates the (optionally weighted) hub scores of its in-neighbors.
//
//arlint:hot
func authSweep(g *graph.Graph, newAuth, hub []float64) {
	for v := range newAuth {
		acc := 0.0
		ws := g.InWeights(graph.NodeID(v))
		for k, u := range g.InNeighbors(graph.NodeID(v)) {
			if ws != nil {
				acc += hub[u] * ws[k]
			} else {
				acc += hub[u]
			}
		}
		newAuth[v] = acc
	}
}

// hubSweep computes one hub update, hub ← A·auth: each state accumulates
// the (optionally weighted) authority scores of its out-neighbors.
//
//arlint:hot
func hubSweep(g *graph.Graph, newHub, auth []float64) {
	for u := range newHub {
		acc := 0.0
		ws := g.OutWeights(graph.NodeID(u))
		for k, v := range g.OutNeighbors(graph.NodeID(u)) {
			if ws != nil {
				acc += auth[v] * ws[k]
			} else {
				acc += auth[v]
			}
		}
		newHub[u] = acc
	}
}

// normalize rescales to sum 1 (a graph with no edges yields all-zero
// vectors, which are left untouched — HITS is undefined there and the
// caller sees zeros rather than NaNs).
//
//arlint:hot
func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if s <= 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}
