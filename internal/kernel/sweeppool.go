package kernel

import (
	"context"
	"runtime"

	"repro/internal/par"
)

// deltaPad is the stride, in float64 slots, between the per-worker
// delta accumulators of a SweepPool: 8 doubles = 64 bytes, one full
// cache line per worker. With a dense layout ([]float64 indexed by
// worker id) every worker's end-of-range store lands in the same line
// and the line ping-pongs between cores once per part per round —
// false sharing on exactly the slots that exist to keep workers
// independent. The padded layout gives each worker sole ownership of
// its line; only the coordinator reads across lines, once per round,
// after the barrier.
const deltaPad = 8

// PoolParts returns the part count a SweepPool asked for parts runs at
// most: parts capped at GOMAXPROCS, because parts beyond the
// schedulable CPUs cannot run concurrently and only add barrier
// traffic. An engine whose request comes out at one part sweeps a
// PushCSR instead, which is faster than a one-part pull.
func PoolParts(parts int) int { return min(parts, runtime.GOMAXPROCS(0)) }

// SweepPool runs pull sweeps of one CSR over a resident par.Team, each
// worker owning a disjoint, edge-balanced range of targets. A
// convergence loop creates it once, calls Sweep once per iteration and
// Closes it when done. The pool owns everything a parallel round needs
// besides the iteration vectors: the partition (par.Split over the
// CSR's in-rows, at PoolParts(parts) parts), the round's dangling mass
// and, on a Uniform snapshot, the pre-scaled vector of the gather-add
// sweep.
//
// Workers write their partial L1 deltas into cache-line-padded slots
// (deltaPad) of a pooled scratch vector; Sweep sums the slots in part
// order after the barrier, so for a fixed partition the result is
// bit-deterministic. Every next[v] is accumulated over v's whole
// in-row no matter where the range bounds fall, so the iterate is
// bit-identical to CSR.Sweep for every part count.
//
// Cancellation: a cancelled context makes workers skip their range
// scan, leaving next stale, so ctx.Err() must be checked after the
// round before next or the returned delta is trusted. A round run as
// an Iterate step gets that check from Iterate's per-step poll.
//
// A SweepPool is NOT safe for concurrent rounds: one Sweep at a time.
type SweepPool struct {
	c      *CSR
	bounds []int     // parts+1 ascending target bounds
	scaled []float64 // cur·InvOut for the round; nil unless c.Uniform()
	deltas []float64 // parts*deltaPad slots; worker w owns [w*deltaPad]
	team   par.Team
	part   func(w int) // sweepPart, bound once so rounds do not allocate

	// The round's inputs, written by Sweep before the broadcast.
	ctx               context.Context
	next, cur, p, d   []float64
	eps, danglingMass float64
}

// NewSweepPool partitions c's targets into at most PoolParts(parts)
// edge-balanced ranges (fewer on graphs with fewer states) and starts
// one worker per range, the caller included.
func NewSweepPool(c *CSR, parts int) *SweepPool {
	sp := &SweepPool{c: c, bounds: par.Split(c.InOff, PoolParts(parts))}
	sp.deltas = GetVec(sp.Parts() * deltaPad)
	if c.Uniform() {
		sp.scaled = GetVec(c.N)
	}
	sp.part = sp.sweepPart
	sp.team.Start(sp.Parts())
	return sp
}

// Parts returns the pool's worker count (including the caller).
func (sp *SweepPool) Parts() int { return len(sp.bounds) - 1 }

// Sweep runs one pull iteration,
//
//	next[v] = (1−eps)·p[v] + eps·danglingMass·d[v] + eps·Σ cur[src]·prob,
//
// with the dangling mass taken from cur, and returns the L1 delta
// summed in part order. See the type comment for the cancellation
// contract.
func (sp *SweepPool) Sweep(ctx context.Context, next, cur, p, d []float64, eps float64) float64 {
	if sp.scaled != nil {
		sp.c.scaleInto(sp.scaled, cur)
	}
	sp.ctx, sp.next, sp.cur, sp.p, sp.d = ctx, next, cur, p, d
	sp.eps, sp.danglingMass = eps, sp.c.DanglingMass(cur)
	sp.team.Run(sp.part)
	delta := 0.0
	for w := range sp.Parts() {
		delta += sp.deltas[w*deltaPad]
	}
	return delta
}

// sweepPart sweeps worker w's range into its padded delta slot, or
// nothing when the round's context is already cancelled (the early-out
// half of the cancellation contract).
func (sp *SweepPool) sweepPart(w int) {
	if sp.ctx.Err() != nil {
		sp.deltas[w*deltaPad] = 0 // cancelled: skip the range scan, the barrier still holds
		return
	}
	lo, hi := sp.bounds[w], sp.bounds[w+1]
	if sp.scaled != nil {
		sp.deltas[w*deltaPad] = sp.c.sweepRangeScaled(sp.next, sp.scaled, sp.cur, sp.p, sp.d, lo, hi, sp.eps, sp.danglingMass)
	} else {
		sp.deltas[w*deltaPad] = sp.c.sweepRange(sp.next, sp.cur, sp.p, sp.d, lo, hi, sp.eps, sp.danglingMass)
	}
}

// Close stops the resident workers and recycles the pool's scratch.
// The pool must not be used afterwards. Close must not run
// concurrently with a round (the engines call it after the
// convergence loop exits).
func (sp *SweepPool) Close() {
	sp.team.Stop()
	PutVec(sp.deltas)
	PutVec(sp.scaled)
	sp.deltas, sp.scaled = nil, nil
	sp.ctx, sp.next, sp.cur, sp.p, sp.d = nil, nil, nil, nil, nil
}
