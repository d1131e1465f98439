// Package pointrank implements the local single-page PageRank estimator
// of Chen, Gan & Suel (CIKM 2004) — reference [17] of the paper, the
// third of the subgraph-ranking approaches surveyed in its related work.
// Where ApproxRank ranks all pages of a given subgraph, pointrank answers
// the narrower question "what is the PageRank of THIS page?" by expanding
// backward along in-links from the target, estimating scores for the
// boundary of the expansion, and solving the PageRank equations on the
// expanded set only.
package pointrank

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/numeric"
)

// Prior selects how boundary pages (in-neighbours outside the influence
// set) are scored.
type Prior int

const (
	// PriorUniform assumes every boundary page has the average score 1/N
	// (the "naive" estimator of Chen et al.).
	PriorUniform Prior = iota
	// PriorInDegree scores a boundary page proportionally to its
	// in-degree, normalized so the graph's total is 1 — the cheap
	// structural refinement Chen et al. propose.
	PriorInDegree
)

// NoExpansion requests a radius of zero: the influence set is the target
// alone and every in-neighbour is scored by the prior. (A Radius of 0
// selects the default radius instead.)
const NoExpansion = -1

// Config parameterizes the estimator. The zero value selects radius 3,
// uniform prior, and the customary walk parameters.
type Config struct {
	// Radius is the backward-BFS expansion depth. 0 selects the default
	// of 3; NoExpansion selects a radius of zero.
	Radius int
	// MaxNodes caps the influence set (the expansion stops early when the
	// cap is hit; farther pages become boundary). Default 25000.
	MaxNodes int
	// BoundaryPrior selects the boundary score estimate.
	BoundaryPrior Prior
	// Epsilon, Tolerance, MaxIterations: walk parameters (0.85 / 1e-8 /
	// 1000 by default — the estimator solves for one number, so a tight
	// tolerance is cheap).
	Epsilon       float64
	Tolerance     float64
	MaxIterations int
}

func (c *Config) fill() error {
	switch {
	case c.Radius == 0:
		c.Radius = 3
	case c.Radius == NoExpansion:
		c.Radius = 0
	case c.Radius < 0:
		return fmt.Errorf("pointrank: invalid radius %d", c.Radius)
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 25000
	}
	if c.MaxNodes < 1 {
		return fmt.Errorf("pointrank: MaxNodes %d < 1", c.MaxNodes)
	}
	if c.BoundaryPrior != PriorUniform && c.BoundaryPrior != PriorInDegree {
		return fmt.Errorf("pointrank: unknown boundary prior %d", c.BoundaryPrior)
	}
	if c.Epsilon == 0 {
		c.Epsilon = numeric.DefaultDamping
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("pointrank: damping factor %v outside (0,1)", c.Epsilon)
	}
	if c.Tolerance == 0 {
		c.Tolerance = numeric.TightTolerance
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("pointrank: negative tolerance %v", c.Tolerance)
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 1000
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("pointrank: MaxIterations %d < 1", c.MaxIterations)
	}
	return nil
}

// Result reports the estimate and the work done.
type Result struct {
	// Score is the estimated global PageRank of the target.
	Score float64
	// InfluenceSize is the number of pages in the backward expansion
	// (including the target).
	InfluenceSize int
	// BoundaryLinks is the number of in-links entering the influence set
	// from outside (the links whose sources needed a prior).
	BoundaryLinks int
	Iterations    int
	Converged     bool
	Elapsed       time.Duration
}

// Estimate computes the PageRank of target by local backward expansion.
func Estimate(g *graph.Graph, target graph.NodeID, cfg Config) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("pointrank: nil graph")
	}
	if int(target) >= g.NumNodes() {
		return nil, fmt.Errorf("pointrank: target %d outside graph (N=%d)", target, g.NumNodes())
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	start := time.Now()
	bigN := float64(g.NumNodes())

	// Backward BFS up to Radius layers (capped at MaxNodes).
	member := graph.NewNodeSet(g.NumNodes())
	member.Add(target)
	set := []graph.NodeID{target}
	level := []graph.NodeID{target}
	for depth := 0; depth < cfg.Radius && len(set) < cfg.MaxNodes; depth++ {
		var next []graph.NodeID
		for _, v := range level {
			for _, u := range g.InNeighbors(v) {
				if member.Contains(u) {
					continue
				}
				member.Add(u)
				set = append(set, u)
				next = append(next, u)
				if len(set) == cfg.MaxNodes {
					break
				}
			}
			if len(set) == cfg.MaxNodes {
				break
			}
		}
		if len(next) == 0 {
			break
		}
		level = next
	}

	// Local index.
	pos := make(map[graph.NodeID]int, len(set))
	for i, v := range set {
		pos[v] = i
	}

	prior := func(u graph.NodeID) float64 {
		switch cfg.BoundaryPrior {
		case PriorInDegree:
			// Normalize so the average page still carries 1/N: a page's
			// share is indeg/(totalEdges) ≈ indeg/(N·avgdeg).
			if g.NumEdges() == 0 {
				return 1 / bigN
			}
			return float64(g.InDegree(u)) / float64(g.NumEdges())
		default:
			return 1 / bigN
		}
	}

	// Fixed inflow from boundary sources, plus the teleport term; both
	// constant across iterations.
	n := len(set)
	base := make([]float64, n)
	boundaryLinks := 0
	for i, v := range set {
		base[i] = (1 - cfg.Epsilon) / bigN
		ws := g.InWeights(v)
		for k, u := range g.InNeighbors(v) {
			if member.Contains(u) {
				continue
			}
			boundaryLinks++
			p := 1.0 / g.WeightOut(u)
			if ws != nil {
				p = ws[k] / g.WeightOut(u)
			}
			base[i] += cfg.Epsilon * prior(u) * p
		}
	}
	// Dangling pages jump uniformly, so every member receives ε/N times
	// the total dangling mass. Mass on dangling pages outside the set is
	// estimated once from the prior; mass on dangling members is tracked
	// dynamically, which keeps the estimator exact when the expansion
	// covers the whole graph.
	staticDanglingMass := 0.0
	var danglingMembers []int
	for u := 0; u < g.NumNodes(); u++ {
		id := graph.NodeID(u)
		if !g.Dangling(id) {
			continue
		}
		if i, in := pos[id]; in {
			danglingMembers = append(danglingMembers, i)
		} else {
			staticDanglingMass += prior(id)
		}
	}

	// Solve x = base + ε·A_Sᵀ·x over the influence set (pull form along
	// in-edges inside the set).
	x := make([]float64, n)
	copy(x, base)
	deltas, converged, err := kernel.Iterate(context.Background(), cfg.MaxIterations, cfg.Tolerance, func() float64 {
		dynDangling := 0.0
		for _, i := range danglingMembers {
			dynDangling += x[i]
		}
		danglingTerm := cfg.Epsilon * (staticDanglingMass + dynDangling) / bigN
		delta := 0.0
		for i, v := range set {
			acc := base[i] + danglingTerm
			ws := g.InWeights(v)
			for k, u := range g.InNeighbors(v) {
				j, in := pos[u]
				if !in {
					continue
				}
				p := 1.0 / g.WeightOut(u)
				if ws != nil {
					p = ws[k] / g.WeightOut(u)
				}
				acc += cfg.Epsilon * x[j] * p
			}
			delta += math.Abs(acc - x[i])
			x[i] = acc
		}
		return delta
	})
	if err != nil {
		return nil, fmt.Errorf("pointrank: %w", err)
	}
	// The target is set[0].
	return &Result{Score: x[0], InfluenceSize: n, BoundaryLinks: boundaryLinks,
		Iterations: len(deltas), Converged: converged, Elapsed: time.Since(start)}, nil
}
