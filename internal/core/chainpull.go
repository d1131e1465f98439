package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/kernel"
)

// pullCSR returns the chain's pull-form CSR, building it on first use.
// The build is O(local states + local edges) and happens at most once
// per chain, so only runs that actually go parallel pay for it.
func (c *ExtendedChain) pullCSR() *kernel.CSR {
	c.pullOnce.Do(func() { c.pull = c.buildPull() })
	return c.pull
}

// buildPull assembles the in-adjacency (pull) form of the collapsed
// transition matrix over the chain's n+1 states. The edge set is exactly
// what the sequential push sweep visits: local row i contributes i→adj
// entries and an i→Λ entry when toLambda[i] > 0, the Λ row contributes
// n→k entries plus the self-loop. The dangling states generalize to
// fractional weights: locally-dangling pages redistribute their whole
// score along the personalization vector (weight 1) while Λ forwards
// only the extDanglingMass fraction on behalf of dangling external
// pages — so kernel.DanglingMass reproduces the push sweep's jump term
// exactly.
func (c *ExtendedChain) buildPull() *kernel.CSR {
	n := c.n
	states := n + 1
	off := make([]int64, states+1)
	for i := 0; i < n; i++ {
		for k := c.locOff[i]; k < c.locOff[i+1]; k++ {
			off[c.locAdj[k]+1]++
		}
		if c.toLambda[i] > 0 {
			off[states]++
		}
	}
	for _, li := range c.lamAdj {
		off[li+1]++
	}
	if c.lamSelf > 0 {
		off[states]++
	}
	for v := 0; v < states; v++ {
		off[v+1] += off[v]
	}
	m := off[states]
	srcs := make([]uint32, m)
	prob := make([]float64, m)
	cursor := make([]int64, states)
	copy(cursor, off[:states])
	put := func(tgt int, src uint32, p float64) {
		slot := cursor[tgt]
		srcs[slot] = src
		prob[slot] = p
		cursor[tgt] = slot + 1
	}
	for i := 0; i < n; i++ {
		for k := c.locOff[i]; k < c.locOff[i+1]; k++ {
			put(int(c.locAdj[k]), uint32(i), c.locProb[k])
		}
		if c.toLambda[i] > 0 {
			put(n, uint32(i), c.toLambda[i])
		}
	}
	for k, li := range c.lamAdj {
		put(int(li), uint32(n), c.lamProb[k])
	}
	if c.lamSelf > 0 {
		put(n, uint32(n), c.lamSelf)
	}

	nd := len(c.locDang)
	if c.extDanglingMass > 0 {
		nd++
	}
	dIdx := make([]uint32, 0, nd)
	dW := make([]float64, 0, nd)
	for _, i := range c.locDang {
		dIdx = append(dIdx, i)
		dW = append(dW, 1)
	}
	if c.extDanglingMass > 0 {
		dIdx = append(dIdx, uint32(n))
		dW = append(dW, c.extDanglingMass)
	}
	return &kernel.CSR{N: states, InOff: off, InSrc: srcs, InProb: prob, DanglingIdx: dIdx, DanglingW: dW}
}

// runParallel is the Parallelism > 1 branch of RunCtx: a pull-based
// power iteration over the chain's cached pull CSR, with a persistent
// kernel.SweepPool of workers each owning a disjoint
// edge-count-balanced range of target states. The team is spawned once
// before the convergence loop and reused every round, so no round pays
// for spawning and joining workers, and its partial deltas sit in
// cache-line-padded pool slots (one line per worker) rather than
// adjacent elements of a shared array that every worker writes.
// Workers read the immutable cur and write only their own slice of
// next, so there is no reduction pass and the iterate is bit-identical
// across worker counts; it differs from the sequential push sweep only by
// floating-point reassociation of each state's in-row. pvec doubles as
// the dangling redistribution vector — the collapsed chain
// redistributes dangling mass along the personalization vector by
// construction.
//
// The requested Parallelism is capped at runtime.GOMAXPROCS(0); unlike
// pagerank.computeParallel this branch keeps its pull iteration even
// at one effective worker, because its contract (ctx polled at every
// iteration's barrier, not every ctxCheckInterval) is part of RunCtx's
// documented cancellation behavior.
func (c *ExtendedChain) runParallel(ctx context.Context, cfg Config, pvec []float64, start time.Time) (*Result, error) {
	csr := c.pullCSR()
	n := c.n
	cur := kernel.GetVec(n + 1)
	next := kernel.GetVec(n + 1)
	deltas := kernel.GetVec(cfg.MaxIterations)
	defer kernel.PutVec(cur)
	defer kernel.PutVec(next)
	defer kernel.PutVec(deltas)
	copy(cur, pvec)

	parts := cfg.Parallelism
	if maxProcs := runtime.GOMAXPROCS(0); parts > maxProcs {
		parts = maxProcs
	}
	bounds := kernel.PartitionByEdges(csr.InOff, parts)
	pool := kernel.NewSweepPool(len(bounds) - 1)
	defer pool.Close()
	eps := cfg.Epsilon
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		delta := pool.Sweep(ctx, csr, next, cur, pvec, pvec, eps, csr.DanglingMass(cur), bounds)
		// A cancellation that landed mid-iteration left next (and the
		// partial deltas) stale; this check runs before either is trusted,
		// so a cancelled iteration can never "converge".
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: power iteration cancelled at iteration %d: %w", iter-1, err)
		}
		deltas[res.Iterations] = delta
		res.Iterations = iter
		cur, next = next, cur
		if delta < cfg.Tolerance {
			res.Converged = true
			break
		}
	}

	finishChainResult(res, cur, deltas[:res.Iterations], n, start)
	return res, nil
}

// finishChainResult copies the pooled iterate and delta history into
// exact-size result slices and splits off the Λ score.
func finishChainResult(res *Result, cur, deltas []float64, n int, start time.Time) {
	res.Scores = make([]float64, n)
	copy(res.Scores, cur[:n])
	res.Lambda = cur[n]
	res.Deltas = make([]float64, len(deltas))
	copy(res.Deltas, deltas)
	res.Elapsed = time.Since(start)
}
