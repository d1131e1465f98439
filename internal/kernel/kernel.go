// Package kernel is the flat power-iteration substrate shared by the
// ranking engines: a one-time snapshot of any directed graph into frozen
// CSR slices, the push and pull sweeps over them, and Iterate, the one
// convergence loop every engine runs its sweeps under.
//
// The snapshot freezes three things the per-iteration hot loops would
// otherwise recompute through an interface seam:
//
//   - the in-adjacency (who contributes to each target), so an iteration
//     can PULL new scores instead of pushing into shared accumulators;
//   - the transition probability of every edge (weight over total
//     out-weight), so the inner loop performs zero divisions;
//   - the dangling set with per-node dangling weights, so the dangling
//     mass is a short dot product instead of a full interface scan.
//
// The pull formulation is what makes the parallel path cheap: each
// worker owns a disjoint output range of next, reads the immutable cur,
// and never touches another worker's slots — no private per-worker
// accumulators, no O(workers·n) reduction, no false sharing beyond the
// range boundaries. Because every next[v] is accumulated over v's full
// in-row in CSR order regardless of how targets are partitioned, the
// per-iteration iterate is bit-identical across worker counts; only the
// L1 delta (summed per part, then in part order) reassociates, which can
// shift the convergence test by at most the float error of the sum.
//
// Partitioning is by EDGE count, not node count: under power-law degree
// distributions node-balanced ranges degenerate (one worker owns all the
// hubs), while PartitionByEdges bounds every worker's per-iteration work
// by edges + nodes in its range.
package kernel

import "math"

// Source is the view of a directed graph a snapshot is built from.
// pagerank.DirectedGraph satisfies it structurally; *graph.Graph
// satisfies both.
type Source interface {
	NumNodes() int
	OutNeighbors(u uint32) []uint32
	OutWeights(u uint32) []float64 // nil for unweighted graphs
	WeightOut(u uint32) float64
	Dangling(u uint32) bool
}

// FlatInSource is an optional Source extension for graphs that already
// materialize an exact in-adjacency CSR (*graph.Graph does). When
// InCSR reports ok, Snapshot aliases the returned slices instead of
// rebuilding the in-adjacency with two scatter passes — only the
// per-edge transition probabilities are computed, in one streaming
// pass. The source must only report ok for exact UNWEIGHTED rows:
// every edge carries probability 1/outdegree(src), no listed edge
// leaves a dangling state, and sources within a row appear in
// ascending order — so the aliased snapshot sweeps bit-identically to
// a rebuilt one. Weighted graphs (where a zero-total-weight state may
// still list edges) must report ok=false and take the generic path.
type FlatInSource interface {
	Source
	InCSR() (off []int64, src []uint32, ok bool)
}

// CSR is a frozen pull-oriented snapshot of a transition matrix: for
// each target v, the sources that contribute to it and the transition
// probability of each contributing edge. Immutable after Snapshot (or
// PushCSR.Pull); safe for concurrent readers.
type CSR struct {
	// N is the number of states.
	N int
	// InOff[v]..InOff[v+1] indexes v's in-edges in InSrc/InProb.
	InOff []int64
	// InSrc[k] is the source of the k-th in-edge.
	InSrc []uint32
	// InProb[k] is the transition probability of the k-th in-edge:
	// weight(src→v) / WeightOut(src). Precomputed so sweeps never divide.
	InProb []float64
	// DanglingIdx lists the states whose mass redistributes along the
	// personalization vector each step. DanglingW carries each state's
	// dangling weight; nil means every listed state has weight 1 (the
	// plain-graph case). Fractional weights model states that are only
	// partially dangling, like the Λ super-node's collapsed external
	// dangling mass.
	DanglingIdx []uint32
	DanglingW   []float64

	// InvOut, when non-nil, marks a UNIFORM snapshot: every in-edge of
	// the CSR carries probability 1/outdegree(src) and InvOut[u] is that
	// reciprocal (0 for dangling u). Uniform snapshots support the
	// scaled sweep path — pre-multiply cur by InvOut once per iteration
	// and the per-edge work collapses to a bare gather-add, with no
	// per-edge probability load at all. InProb stays populated, so the
	// generic sweeps and the Gauss–Seidel loop work on either kind.
	InvOut []float64

	// Per-field pool provenance: an aliased snapshot borrows InOff/InSrc
	// from the source graph but pools the rest, so Release must return
	// exactly the fields that came from the package pools.
	poolOff, poolSrc, poolProb, poolDang, poolInv bool
}

// Snapshot freezes src into a pull CSR. When the source exposes an
// exact materialized in-adjacency (FlatInSource), the offsets and
// sources are aliased and only the per-edge transition probabilities
// are computed — one streaming pass instead of the generic two scatter
// passes. Otherwise it costs two passes over the out-adjacency
// (O(n+m)). Either way this is the only place the engines touch the
// graph through an interface; every subsequent sweep is pure slice
// arithmetic. The returned snapshot draws its scratch from the package
// pools — call Release when done to recycle it.
func Snapshot(src Source) *CSR {
	if f, ok := src.(FlatInSource); ok {
		if off, srcs, exact := f.InCSR(); exact {
			return snapshotAliased(f, off, srcs)
		}
	}
	n := src.NumNodes()
	off := GetOff(n + 1)
	for i := range off {
		off[i] = 0
	}
	dang := GetIDs(n)
	nd := 0
	// First pass: in-degree counts. Dangling nodes contribute no edges
	// (a weighted node with zero total out-weight may still list
	// neighbors; its rows are all-zero and handled as dangling mass).
	for u := 0; u < n; u++ {
		if src.Dangling(uint32(u)) {
			dang[nd] = uint32(u)
			nd++
			continue
		}
		for _, v := range src.OutNeighbors(uint32(u)) {
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	m := off[n]
	srcs := GetIDs(int(m))
	prob := GetVec(int(m))
	cursor := GetOff(n)
	copy(cursor, off[:n])
	// Second pass: fill, with the per-source reciprocal computed once.
	for u := 0; u < n; u++ {
		if src.Dangling(uint32(u)) {
			continue
		}
		adj := src.OutNeighbors(uint32(u))
		ws := src.OutWeights(uint32(u))
		if ws == nil {
			p := 1.0 / float64(len(adj))
			for _, v := range adj {
				slot := cursor[v]
				srcs[slot] = uint32(u)
				prob[slot] = p
				cursor[v]++
			}
		} else {
			inv := 1.0 / src.WeightOut(uint32(u))
			for k, v := range adj {
				slot := cursor[v]
				srcs[slot] = uint32(u)
				prob[slot] = inv * ws[k]
				cursor[v]++
			}
		}
	}
	PutOff(cursor)
	c := &CSR{N: n, InOff: off, InSrc: srcs, InProb: prob,
		poolOff: true, poolSrc: true, poolProb: true}
	if nd > 0 {
		c.DanglingIdx, c.poolDang = dang[:nd], true
	} else {
		PutIDs(dang)
	}
	return c
}

// snapshotAliased builds the CSR around a source-owned in-adjacency:
// InOff and InSrc alias the graph's immutable storage, and a single
// streaming pass gathers each edge's precomputed source reciprocal
// into InProb. This skips the generic path's per-edge scatter work,
// which dominates one-shot Compute calls on large graphs.
func snapshotAliased(src FlatInSource, off []int64, srcs []uint32) *CSR {
	n := src.NumNodes()
	inv := GetVec(n)
	dang := GetIDs(n)
	nd := 0
	for u := 0; u < n; u++ {
		if src.Dangling(uint32(u)) {
			inv[u] = 0
			dang[nd] = uint32(u)
			nd++
		} else {
			inv[u] = 1.0 / src.WeightOut(uint32(u))
		}
	}
	prob := GetVec(len(srcs))
	for k, u := range srcs {
		prob[k] = inv[u]
	}
	c := &CSR{N: n, InOff: off, InSrc: srcs, InProb: prob, InvOut: inv,
		poolProb: true, poolInv: true}
	if nd > 0 {
		c.DanglingIdx, c.poolDang = dang[:nd], true
	} else {
		PutIDs(dang)
	}
	return c
}

// Release returns a pooled snapshot's slices to the package pools. The
// snapshot must not be used afterwards. No-op for a PushCSR.Pull result.
func (c *CSR) Release() {
	if !c.poolOff && !c.poolSrc && !c.poolProb && !c.poolDang && !c.poolInv {
		return
	}
	if c.poolOff {
		PutOff(c.InOff)
	}
	if c.poolSrc {
		PutIDs(c.InSrc)
	}
	if c.poolProb {
		PutVec(c.InProb)
	}
	if c.poolDang {
		PutIDs(c.DanglingIdx)
	}
	if c.poolInv {
		PutVec(c.InvOut)
	}
	c.InOff, c.InSrc, c.InProb, c.InvOut = nil, nil, nil, nil
	c.DanglingIdx, c.DanglingW = nil, nil
	c.poolOff, c.poolSrc, c.poolProb, c.poolDang, c.poolInv = false, false, false, false, false
}

// DanglingMass returns the weighted score mass sitting on the dangling
// states of cur: Σ w_i·cur[i] over DanglingIdx.
//
//arlint:hot
func (c *CSR) DanglingMass(cur []float64) float64 {
	s := 0.0
	if c.DanglingW == nil {
		for _, u := range c.DanglingIdx {
			s += cur[u]
		}
	} else {
		for k, u := range c.DanglingIdx {
			s += c.DanglingW[k] * cur[u]
		}
	}
	return s
}

// SweepRange computes one pull iteration for targets [lo, hi):
//
//	next[v] = (1−eps)·p[v] + eps·danglingMass·d[v] + eps·Σ cur[src]·prob
//
// and returns the partial L1 delta Σ|next[v]−cur[v]| over the range.
// It reads only cur and writes only next[lo:hi], so disjoint ranges can
// run concurrently. The inner loop is pure slice arithmetic: no
// interface calls, no divisions, no bounds beyond the CSR row. Each
// row's dot product runs over four independent accumulators: a single
// running sum serializes on floating-point add latency (every += waits
// for the previous), which on gather-bound rows costs more than the
// memory traffic itself. The row split is fixed (positions mod 4), so
// the result does not depend on lo/hi and worker counts stay
// bit-identical.
//
//arlint:hot
func (c *CSR) SweepRange(next, cur, p, d []float64, lo, hi int, eps, danglingMass float64) float64 {
	base := 1 - eps
	jump := eps * danglingMass
	off := c.InOff
	delta := 0.0
	for v := lo; v < hi; v++ {
		row := c.InSrc[off[v]:off[v+1]]
		rp := c.InProb[off[v]:off[v+1]]
		rp = rp[:len(row)]
		var s0, s1, s2, s3 float64
		k := 0
		for ; k+4 <= len(row); k += 4 {
			s0 += cur[row[k]] * rp[k]
			s1 += cur[row[k+1]] * rp[k+1]
			s2 += cur[row[k+2]] * rp[k+2]
			s3 += cur[row[k+3]] * rp[k+3]
		}
		s := (s0 + s1) + (s2 + s3)
		for ; k < len(row); k++ {
			s += cur[row[k]] * rp[k]
		}
		x := base*p[v] + jump*d[v] + eps*s
		next[v] = x
		delta += math.Abs(x - cur[v])
	}
	return delta
}

// Sweep is SweepRange over all N targets.
//
//arlint:hot
func (c *CSR) Sweep(next, cur, p, d []float64, eps, danglingMass float64) float64 {
	return c.SweepRange(next, cur, p, d, 0, c.N, eps, danglingMass)
}

// Uniform reports whether every in-edge carries probability
// 1/outdegree(src), enabling the scaled sweep path.
func (c *CSR) Uniform() bool { return c.InvOut != nil }

// ScaleInto fills scaled[u] = cur[u]·InvOut[u] — the per-source factor
// of a uniform snapshot's pull sum, hoisted out of the per-edge loop.
// Each product is computed once here instead of once per out-edge, and
// the same double multiplies the same double, so a scaled sweep is
// bit-identical to the probability-carrying one. Only valid on Uniform
// snapshots.
//
//arlint:hot
func (c *CSR) ScaleInto(scaled, cur []float64) {
	inv := c.InvOut
	_ = scaled[len(inv)-1]
	for u, x := range inv {
		scaled[u] = cur[u] * x
	}
}

// SweepRangeScaled is SweepRange for a uniform snapshot with cur
// pre-scaled by ScaleInto: the per-edge work is a bare gather-add —
// no probability load, no multiply. cur is still needed for the L1
// delta. The four-accumulator split matches SweepRange's, so both
// paths produce bit-identical iterates.
//
//arlint:hot
func (c *CSR) SweepRangeScaled(next, scaled, cur, p, d []float64, lo, hi int, eps, danglingMass float64) float64 {
	base := 1 - eps
	jump := eps * danglingMass
	off, srcs := c.InOff, c.InSrc
	delta := 0.0
	k := off[lo]
	for v := lo; v < hi; v++ {
		end := off[v+1]
		var s0, s1, s2, s3 float64
		for ; k+4 <= end; k += 4 {
			s0 += scaled[srcs[k]]
			s1 += scaled[srcs[k+1]]
			s2 += scaled[srcs[k+2]]
			s3 += scaled[srcs[k+3]]
		}
		s := (s0 + s1) + (s2 + s3)
		for ; k < end; k++ {
			s += scaled[srcs[k]]
		}
		x := base*p[v] + jump*d[v] + eps*s
		next[v] = x
		delta += math.Abs(x - cur[v])
	}
	return delta
}

// SweepScaled is SweepRangeScaled over all N targets.
//
//arlint:hot
func (c *CSR) SweepScaled(next, scaled, cur, p, d []float64, eps, danglingMass float64) float64 {
	return c.SweepRangeScaled(next, scaled, cur, p, d, 0, c.N, eps, danglingMass)
}

// PartitionByEdges splits targets [0, n) into parts contiguous ranges of
// roughly equal sweep cost, costing each target its in-degree plus one
// (the constant per-node work). Node-count-balanced ranges degenerate
// under power-law in-degrees — one range inherits every hub — while the
// cumulative-cost walk here bounds each part near total/parts. Returns
// parts+1 ascending bounds; some trailing parts may be empty when
// parts > n.
func PartitionByEdges(off []int64, parts int) []int {
	n := len(off) - 1
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, parts+1)
	total := off[n] + int64(n)
	v := 0
	for w := 1; w < parts; w++ {
		target := total * int64(w) / int64(parts)
		for v < n && off[v]+int64(v) < target {
			v++
		}
		bounds[w] = v
	}
	bounds[parts] = n
	return bounds
}
