package graph

import (
	"fmt"
	"math"
	"sort"
)

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are merged (weights are summed for weighted graphs); self-loops are
// kept — the web graph contains them and the Λ super-node relies on one.
//
// A Builder is either weighted or unweighted for its whole life: the first
// call to AddEdge or AddWeightedEdge fixes the mode, and mixing the two is
// an error reported by Build.
type Builder struct {
	n        int
	src, dst []NodeID
	w        []float64
	weighted bool
	fixed    bool
	mixErr   bool
}

// NewBuilder returns a Builder for a graph with numNodes nodes.
// numNodes may be grown later with EnsureNode.
func NewBuilder(numNodes int) *Builder {
	return &Builder{n: numNodes}
}

// NumNodes returns the current node count.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of edges added so far (before dedup).
func (b *Builder) NumEdges() int { return len(b.src) }

// EnsureNode grows the node count so that id is a valid node.
func (b *Builder) EnsureNode(id NodeID) {
	if int(id) >= b.n {
		b.n = int(id) + 1
	}
}

// AddEdge records the unweighted directed edge u→v.
func (b *Builder) AddEdge(u, v NodeID) {
	if b.fixed && b.weighted {
		b.mixErr = true
		return
	}
	b.fixed = true
	b.EnsureNode(u)
	b.EnsureNode(v)
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
}

// AddWeightedEdge records the directed edge u→v carrying authority-transfer
// weight w. Non-positive and non-finite (NaN, ±Inf) weights are ignored.
func (b *Builder) AddWeightedEdge(u, v NodeID, w float64) {
	if b.fixed && !b.weighted {
		b.mixErr = true
		return
	}
	b.fixed = true
	b.weighted = true
	b.EnsureNode(u)
	b.EnsureNode(v)
	if !(w > 0) || math.IsInf(w, 1) {
		return
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	b.w = append(b.w, w)
}

// Build sorts, deduplicates and freezes the accumulated edges into a Graph.
// The Builder must not be reused afterwards.
func (b *Builder) Build() (*Graph, error) {
	if b.mixErr {
		return nil, fmt.Errorf("graph: builder mixed AddEdge and AddWeightedEdge")
	}
	if b.n == 0 {
		return nil, fmt.Errorf("graph: cannot build an empty graph")
	}
	m := len(b.src)

	// Sort edge triples by (src, dst) via an index permutation so weights
	// stay aligned.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, c int) bool {
		ia, ic := idx[a], idx[c]
		if b.src[ia] != b.src[ic] {
			return b.src[ia] < b.src[ic]
		}
		return b.dst[ia] < b.dst[ic]
	})

	g := &Graph{n: b.n}
	g.outOff = make([]int64, b.n+1)
	g.outAdj = make([]NodeID, 0, m)
	if b.weighted {
		g.outW = make([]float64, 0, m)
	}

	// Deduplicate while filling the out-CSR.
	for pos := 0; pos < m; {
		i := idx[pos]
		u, v := b.src[i], b.dst[i]
		w := 0.0
		for pos < m && b.src[idx[pos]] == u && b.dst[idx[pos]] == v {
			if b.weighted {
				w += b.w[idx[pos]]
			}
			pos++
		}
		g.outAdj = append(g.outAdj, v)
		if b.weighted {
			g.outW = append(g.outW, w)
		}
		g.outOff[u+1]++
	}
	for u := 0; u < b.n; u++ {
		g.outOff[u+1] += g.outOff[u]
	}

	buildIn(g)
	if b.weighted {
		g.wOut = make([]float64, b.n)
		for u := 0; u < b.n; u++ {
			for _, w := range g.OutWeights(NodeID(u)) {
				g.wOut[u] += w
			}
		}
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// FromEdges is a convenience constructor that builds an unweighted graph
// with numNodes nodes from the given (src, dst) pairs.
func FromEdges(numNodes int, edges [][2]NodeID) (*Graph, error) {
	b := NewBuilder(numNodes)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// MustFromEdges is FromEdges but panics on error. Intended for tests and
// examples where the edge list is a literal.
func MustFromEdges(numNodes int, edges [][2]NodeID) *Graph {
	g, err := FromEdges(numNodes, edges)
	if err != nil {
		panic(err)
	}
	return g
}
