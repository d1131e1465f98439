package kernel

import "math"

// PushCSR is the out-adjacency mirror of CSR, used by the SEQUENTIAL
// power-iteration paths. Push and pull visit the same edges, but their
// random accesses land differently in the pipeline: a pull sweep's
// per-edge gather sits on the accumulation chain's critical path (the
// add cannot retire until the load returns), while a push sweep's
// random access is a read-modify-write to next whose store the store
// buffer absorbs — independent across edges, so the out-of-order core
// overlaps them freely. Measured on web-scale graphs the push sweep is
// about twice as fast per iteration single-threaded. Pull remains the
// only shape that parallelizes without shared accumulators (each worker
// owns a disjoint output range), so the engines pair a PushCSR
// sequential path with a CSR parallel path; Pull transposes the one into
// the other.
type PushCSR struct {
	// N is the number of states.
	N int
	// OutOff[u]..OutOff[u+1] indexes u's out-edges in OutDst/OutProb.
	OutOff []int64
	// OutDst[k] is the target of the k-th out-edge.
	OutDst []uint32
	// OutProb[k] is the transition probability of the k-th out-edge.
	// nil for uniform snapshots — every edge then carries 1/outdeg(src),
	// folded into InvOut instead of stored per edge.
	OutProb []float64
	// InvOut[u] is 1/outdeg(u) (0 for dangling u) on uniform snapshots,
	// nil when OutProb carries per-edge probabilities.
	InvOut []float64
	// DanglingIdx lists the states whose mass redistributes along the
	// dangling distribution each step. DanglingW carries each state's
	// dangling weight, as on CSR; nil means weight 1 for every listed
	// state (every snapshot of a plain graph).
	DanglingIdx []uint32
	DanglingW   []float64

	poolOff, poolDst, poolProb, poolInv, poolDang bool
}

// FlatOutSource is the optional Source extension mirroring FlatInSource
// for the push side: OutCSR must only report ok for exact UNWEIGHTED
// rows (every edge carries probability 1/outdegree and dangling states
// list no edges), letting PushSnapshot alias the graph's storage.
type FlatOutSource interface {
	Source
	OutCSR() (off []int64, dst []uint32, ok bool)
}

// PushSnapshot freezes src into a push CSR. Sources exposing an exact
// materialized out-adjacency (FlatOutSource) are aliased — only the
// per-source reciprocals and the dangling list are computed. The
// generic fallback copies the rows (one streaming pass, no scatter —
// the out-adjacency is already grouped by source).
func PushSnapshot(src Source) *PushCSR {
	n := src.NumNodes()
	if f, ok := src.(FlatOutSource); ok {
		if off, dst, exact := f.OutCSR(); exact {
			c := &PushCSR{N: n, OutOff: off, OutDst: dst}
			c.fillUniform(src)
			return c
		}
	}
	off := GetOff(n + 1)
	off[0] = 0
	m := 0
	for u := 0; u < n; u++ {
		if !src.Dangling(uint32(u)) {
			m += len(src.OutNeighbors(uint32(u)))
		}
		off[u+1] = int64(m)
	}
	dst := GetIDs(m)
	c := &PushCSR{N: n, OutOff: off, OutDst: dst, poolOff: true, poolDst: true}
	weighted := false
	for u := 0; u < n && !weighted; u++ {
		weighted = src.OutWeights(uint32(u)) != nil
	}
	if weighted {
		prob := GetVec(m)
		for u := 0; u < n; u++ {
			if src.Dangling(uint32(u)) {
				continue
			}
			adj := src.OutNeighbors(uint32(u))
			ws := src.OutWeights(uint32(u))
			inv := 1.0 / src.WeightOut(uint32(u))
			base := off[u]
			for k := range adj {
				dst[base+int64(k)] = adj[k]
				prob[base+int64(k)] = inv * ws[k]
			}
		}
		c.OutProb, c.poolProb = prob, true
		dang := GetIDs(n)
		nd := 0
		for u := 0; u < n; u++ {
			if src.Dangling(uint32(u)) {
				dang[nd] = uint32(u)
				nd++
			}
		}
		if nd > 0 {
			c.DanglingIdx, c.poolDang = dang[:nd], true
		} else {
			PutIDs(dang)
		}
		return c
	}
	for u := 0; u < n; u++ {
		if src.Dangling(uint32(u)) {
			continue
		}
		copy(dst[off[u]:off[u+1]], src.OutNeighbors(uint32(u)))
	}
	c.fillUniform(src)
	return c
}

// fillUniform computes the per-source reciprocals and the dangling list
// for a uniform (unweighted) push snapshot.
func (c *PushCSR) fillUniform(src Source) {
	n := c.N
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
	c.InvOut, c.poolInv = inv, true
	if nd > 0 {
		c.DanglingIdx, c.poolDang = dang[:nd], true
	} else {
		PutIDs(dang)
	}
}

// Release returns a pooled snapshot's slices to the package pools. The
// snapshot must not be used afterwards.
func (c *PushCSR) Release() {
	if c.poolOff {
		PutOff(c.OutOff)
	}
	if c.poolDst {
		PutIDs(c.OutDst)
	}
	if c.poolProb {
		PutVec(c.OutProb)
	}
	if c.poolInv {
		PutVec(c.InvOut)
	}
	if c.poolDang {
		PutIDs(c.DanglingIdx)
	}
	c.OutOff, c.OutDst, c.OutProb, c.InvOut, c.DanglingIdx, c.DanglingW = nil, nil, nil, nil, nil, nil
	c.poolOff, c.poolDst, c.poolProb, c.poolInv, c.poolDang = false, false, false, false, false
}

// DanglingMass returns the weighted score mass sitting on the dangling
// states: Σ w_i·cur[i] over DanglingIdx.
//
//arlint:hot
func (c *PushCSR) DanglingMass(cur []float64) float64 {
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

// Sweep computes one push iteration over all states,
//
//	next[v] = (1−eps)·p[v] + eps·danglingMass·d[v] + eps·Σ cur[src]·prob,
//
// with the dangling mass taken from cur, in three passes — initialize next from the jump terms (streaming),
// push every source's scaled score along its out-row (the random
// stores), then accumulate the L1 delta (streaming) — and returns the
// delta. Zero interface calls and zero divisions anywhere; sources
// with no mass to move (dangling, or score exactly 0) skip their row.
//
//arlint:hot
func (c *PushCSR) Sweep(next, cur, p, d []float64, eps float64) float64 {
	base := 1 - eps
	jump := eps * c.DanglingMass(cur)
	n := c.N
	for v := 0; v < n; v++ {
		next[v] = base*p[v] + jump*d[v]
	}
	off, dst := c.OutOff, c.OutDst
	if c.OutProb == nil {
		inv := c.InvOut
		for u := 0; u < n; u++ {
			su := eps * cur[u] * inv[u]
			if su == 0 {
				continue
			}
			end := off[u+1]
			for k := off[u]; k < end; k++ {
				next[dst[k]] += su
			}
		}
	} else {
		prob := c.OutProb
		for u := 0; u < n; u++ {
			su := eps * cur[u]
			if su == 0 {
				continue
			}
			end := off[u+1]
			for k := off[u]; k < end; k++ {
				next[dst[k]] += su * prob[k]
			}
		}
	}
	delta := 0.0
	for v := 0; v < n; v++ {
		delta += math.Abs(next[v] - cur[v])
	}
	return delta
}

// Pull returns the transpose of c as a pull CSR: row v lists every edge
// u→v with its probability, sources ascending and, within one source,
// in c's row order, so a pull sweep over it computes c's matrix. The
// result is heap-allocated, not pooled, and shares c's dangling list
// and weights: it must not outlive a Released c.
func (c *PushCSR) Pull() *CSR { return c.transpose(false) }

// transpose is Pull with the slices drawn from the package pools when
// pooled is set, marked so CSR.Release returns them.
func (c *PushCSR) transpose(pooled bool) *CSR {
	n := c.N
	m := c.OutOff[n]
	dst := c.OutDst[:m]
	var off []int64
	var srcs []uint32
	var prob []float64
	if pooled {
		off, srcs, prob = GetOff(n+1), GetIDs(int(m)), GetVec(int(m))
		clear(off)
	} else {
		off, srcs, prob = make([]int64, n+1), make([]uint32, m), make([]float64, m)
	}
	// Count each target's in-edges at off[v+1], turn the counts into row
	// starts shifted by one, then fill: off[v+1] advances from v's start
	// to its end, which is where the next row starts.
	for _, v := range dst {
		off[v+1]++
	}
	var at int64
	for v := 1; v <= n; v++ {
		at, off[v] = at+off[v], at
	}
	for u := 0; u < n; u++ {
		for k := c.OutOff[u]; k < c.OutOff[u+1]; k++ {
			slot := off[dst[k]+1]
			off[dst[k]+1]++
			srcs[slot] = uint32(u)
			if c.OutProb != nil {
				prob[slot] = c.OutProb[k]
			} else {
				prob[slot] = c.InvOut[u]
			}
		}
	}
	return &CSR{N: n, InOff: off, InSrc: srcs, InProb: prob, DanglingIdx: c.DanglingIdx, DanglingW: c.DanglingW,
		poolOff: pooled, poolSrc: pooled, poolProb: pooled}
}
