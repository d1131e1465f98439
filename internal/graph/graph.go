// Package graph provides a compact directed-graph engine used by every
// ranking algorithm in this repository.
//
// Graphs are stored in compressed sparse row (CSR) form over dense uint32
// node ids. Both the out-adjacency and the in-adjacency are materialized:
// PageRank-style push iterations walk out-edges, while the Λ-row
// construction in the ApproxRank/IdealRank framework aggregates over
// in-edges (of local pages for IdealRank, of every page once per graph
// for ApproxRank's in-mass vector). Graphs are immutable after
// construction; build them with a Builder or load them with LoadFile
// (text edge list or v2 binary) or MmapFile (v2, zero-copy).
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node. Ids are dense: a graph with n nodes uses ids
// 0..n-1.
type NodeID = uint32

// Graph is an immutable directed graph in CSR form. An optional parallel
// weight array turns it into a weighted graph (used by the ObjectRank-style
// authority-transfer variant); when weights are absent every out-edge of a
// node carries equal transition probability 1/outdegree.
type Graph struct {
	n int

	outOff []int64  // len n+1
	outAdj []NodeID // len m, sorted within each node's slice
	inOff  []int64  // len n+1
	inAdj  []NodeID // len m, sorted within each node's slice

	// Optional edge weights, parallel to outAdj and inAdj. Either both are
	// nil (unweighted) or both have length m. Weights are raw authority
	// transfer amounts; transition probabilities divide by WeightOut(i).
	outW []float64
	inW  []float64

	// wOut[i] is the sum of outgoing edge weights of i (only set when
	// weighted). For unweighted graphs the out-degree plays this role.
	wOut []float64

	// mapped is the mmap'd file region backing the slices above when the
	// graph was loaded with MmapFile; nil for heap-backed graphs. Close
	// releases it.
	mapped []byte

	// fileSig is the format signature carried by a v2 file (FNV-1a over
	// the out-section checksums); hasSig distinguishes a real signature
	// from the zero value. See FormatSignature.
	fileSig uint64
	hasSig  bool
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outAdj) }

// Weighted reports whether the graph carries per-edge weights.
func (g *Graph) Weighted() bool { return g.outW != nil }

// OutDegree returns the out-degree of node u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the in-degree of node u.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inOff[u+1] - g.inOff[u])
}

// OutNeighbors returns the successors of u. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) OutNeighbors(u NodeID) []NodeID {
	return g.outAdj[g.outOff[u]:g.outOff[u+1]]
}

// InNeighbors returns the predecessors of u. The returned slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) InNeighbors(u NodeID) []NodeID {
	return g.inAdj[g.inOff[u]:g.inOff[u+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(u), or nil for an
// unweighted graph.
func (g *Graph) OutWeights(u NodeID) []float64 {
	if g.outW == nil {
		return nil
	}
	return g.outW[g.outOff[u]:g.outOff[u+1]]
}

// InWeights returns the weights parallel to InNeighbors(u), or nil for an
// unweighted graph.
func (g *Graph) InWeights(u NodeID) []float64 {
	if g.inW == nil {
		return nil
	}
	return g.inW[g.inOff[u]:g.inOff[u+1]]
}

// InCSR exposes the graph's materialized in-adjacency as flat CSR
// slices (kernel.FlatInSource), letting the iteration kernel alias
// them instead of rebuilding the in-adjacency per snapshot. Only
// unweighted graphs qualify (ok=false otherwise): their rows are
// exact — a dangling node has no out-edges at all, every listed edge
// carries probability 1/outdegree, and sources within each row are
// ascending — whereas a weighted node with zero total out-weight is
// dangling yet may still list neighbors, so its rows cannot be taken
// verbatim. The returned slices alias internal storage and must not be
// modified.
func (g *Graph) InCSR() (off []int64, src []NodeID, ok bool) {
	if g.outW != nil {
		return nil, nil, false
	}
	return g.inOff, g.inAdj, true
}

// OutCSR is the push-side mirror of InCSR (kernel.FlatOutSource): the
// materialized out-adjacency as flat CSR slices, under the same
// unweighted-only exactness contract. The returned slices alias
// internal storage and must not be modified.
func (g *Graph) OutCSR() (off []int64, dst []NodeID, ok bool) {
	if g.outW != nil {
		return nil, nil, false
	}
	return g.outOff, g.outAdj, true
}

// WeightOut returns the total outgoing edge weight of u. For unweighted
// graphs it equals the out-degree.
func (g *Graph) WeightOut(u NodeID) float64 {
	if g.wOut != nil {
		return g.wOut[u]
	}
	return float64(g.OutDegree(u))
}

// Dangling reports whether u has no outgoing edges (or, in a weighted
// graph, zero total outgoing weight).
func (g *Graph) Dangling(u NodeID) bool {
	if g.wOut != nil {
		return g.wOut[u] == 0
	}
	return g.outOff[u+1] == g.outOff[u]
}

// TransitionProb returns the probability that the PageRank random surfer,
// standing on u and following links, moves along the edge with out-slot
// index k (an index into OutNeighbors(u)).
func (g *Graph) TransitionProb(u NodeID, k int) float64 {
	if g.outW != nil {
		return g.outW[g.outOff[u]+int64(k)] / g.wOut[u]
	}
	return 1.0 / float64(g.OutDegree(u))
}

// HasEdge reports whether the edge u→v exists, in O(log outdeg(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.OutNeighbors(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// DanglingNodes returns the ids of all dangling nodes.
func (g *Graph) DanglingNodes() []NodeID {
	// Two passes: count, then fill an exact-size slice — one allocation
	// instead of append-doubling growth.
	cnt := 0
	for u := 0; u < g.n; u++ {
		if g.Dangling(NodeID(u)) {
			cnt++
		}
	}
	if cnt == 0 {
		return nil
	}
	out := make([]NodeID, 0, cnt)
	for u := 0; u < g.n; u++ {
		if g.Dangling(NodeID(u)) {
			out = append(out, NodeID(u))
		}
	}
	return out
}

// validate checks structural invariants; it is used by tests and by the
// binary reader on untrusted input.
func (g *Graph) validate() error {
	if len(g.outOff) != g.n+1 || len(g.inOff) != g.n+1 {
		return fmt.Errorf("graph: offset arrays have wrong length")
	}
	if g.outOff[0] != 0 || g.inOff[0] != 0 {
		return fmt.Errorf("graph: offsets must start at 0")
	}
	if g.outOff[g.n] != int64(len(g.outAdj)) || g.inOff[g.n] != int64(len(g.inAdj)) {
		return fmt.Errorf("graph: final offsets do not match edge count")
	}
	if len(g.outAdj) != len(g.inAdj) {
		return fmt.Errorf("graph: out/in edge counts differ: %d vs %d", len(g.outAdj), len(g.inAdj))
	}
	for u := 0; u < g.n; u++ {
		if g.outOff[u] > g.outOff[u+1] || g.inOff[u] > g.inOff[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
	}
	for _, v := range g.outAdj {
		if int(v) >= g.n {
			return fmt.Errorf("graph: out-edge target %d out of range (n=%d)", v, g.n)
		}
	}
	for _, v := range g.inAdj {
		if int(v) >= g.n {
			return fmt.Errorf("graph: in-edge source %d out of range (n=%d)", v, g.n)
		}
	}
	if (g.outW == nil) != (g.inW == nil) {
		return fmt.Errorf("graph: inconsistent weight arrays")
	}
	if g.outW != nil && (len(g.outW) != len(g.outAdj) || len(g.inW) != len(g.inAdj)) {
		return fmt.Errorf("graph: weight arrays have wrong length")
	}
	if g.outW == nil {
		return nil
	}
	// Weighted: every edge weight is finite and positive, so a node's
	// total out-weight is positive exactly when it has out-edges and a
	// dangling node lists no edge.
	for _, ws := range [2][]float64{g.outW, g.inW} {
		for k, w := range ws {
			if !(w > 0) || math.IsInf(w, 1) {
				return fmt.Errorf("graph: edge weight %v at slot %d is not finite and positive", w, k)
			}
		}
	}
	if len(g.wOut) != g.n {
		return fmt.Errorf("graph: total out-weight array has wrong length")
	}
	for u, w := range g.wOut {
		if math.IsNaN(w) || math.IsInf(w, 0) || (w > 0) != (g.outOff[u+1] > g.outOff[u]) {
			return fmt.Errorf("graph: total out-weight %v of node %d is not finite or disagrees with its out-degree", w, u)
		}
	}
	return nil
}
