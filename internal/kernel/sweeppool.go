package kernel

import (
	"context"
	"sync"
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

// sweepJob is one round's worth of work, broadcast to every pool
// worker: the frozen snapshot, the iteration vectors, and the shared
// partition bounds. scaled selects the kernel: nil runs the
// probability-carrying SweepRange, non-nil the gather-add
// SweepRangeScaled of a uniform snapshot.
type sweepJob struct {
	ctx               context.Context
	c                 *CSR
	next, scaled, cur []float64
	p, d              []float64
	bounds            []int
	eps, danglingMass float64
}

// sweepPart runs the job's range for worker w, or nothing when the
// round's context is already cancelled (the early-out half of the
// pool's cancellation contract).
func (job *sweepJob) sweepPart(w int) float64 {
	if job.ctx.Err() != nil {
		return 0 // cancelled: skip the range scan, the barrier still holds
	}
	lo, hi := job.bounds[w], job.bounds[w+1]
	if job.scaled != nil {
		return job.c.SweepRangeScaled(job.next, job.scaled, job.cur, job.p, job.d, lo, hi, job.eps, job.danglingMass)
	}
	return job.c.SweepRange(job.next, job.cur, job.p, job.d, lo, hi, job.eps, job.danglingMass)
}

// SweepPool is a persistent, round-barriered team of sweep workers. A
// convergence loop spawns it once, calls Sweep or SweepScaled once per
// iteration, and Closes it when done — amortizing goroutine creation
// across the whole run instead of paying one spawn+join per worker per
// round, which costs goroutine creation, WaitGroup churn and an
// allocation per worker every iteration. The calling goroutine
// participates as worker 0, so a pool of P parts keeps exactly P
// runnable goroutines and a single-part pool runs the sweep inline
// with no synchronization at all.
//
// Each round is a broadcast/join barrier: the coordinator hands the
// same job to every worker over its private buffered channel, sweeps
// part 0 itself, and waits for the team. Workers write their partial
// L1 deltas into cache-line-padded slots (deltaPad) of a pooled
// scratch vector; the coordinator sums the slots in part order after
// the barrier, so for a fixed partition the result is bit-identical
// to the sequential sweep's part-ordered reduction.
//
// Cancellation: a cancelled context makes workers skip their range
// scan, leaving next stale, so ctx.Err() must be checked after the
// round before next or the returned delta is trusted. A round run as
// an Iterate step gets that check from Iterate's per-step poll.
//
// A SweepPool is NOT safe for concurrent rounds: one Sweep at a time.
type SweepPool struct {
	parts  int
	deltas []float64       // parts*deltaPad slots; worker w owns [w*deltaPad]
	jobs   []chan sweepJob // workers 1..parts-1, one buffered channel each
	wg     sync.WaitGroup
}

// NewSweepPool spawns a pool of parts sweep workers (parts-1
// goroutines plus the caller). Sweep and SweepScaled must then be
// called with bounds of exactly parts+1 entries — normally the value
// PartitionByEdges returned, whose part count the caller passes here.
func NewSweepPool(parts int) *SweepPool {
	if parts < 1 {
		parts = 1
	}
	sp := &SweepPool{parts: parts, deltas: GetVec(parts * deltaPad)}
	if parts > 1 {
		sp.jobs = make([]chan sweepJob, parts-1)
		for w := 1; w < parts; w++ {
			ch := make(chan sweepJob, 1)
			sp.jobs[w-1] = ch
			go sp.worker(w, ch)
		}
	}
	return sp
}

// Parts returns the pool's worker count (including the caller).
func (sp *SweepPool) Parts() int { return sp.parts }

// worker is the body of one persistent pool goroutine: sweep the
// round's part, publish the partial delta into the worker's padded
// slot, hit the barrier, sleep until the next round. The loop ends
// when Close closes the job channel.
func (sp *SweepPool) worker(w int, jobs <-chan sweepJob) {
	for job := range jobs {
		sp.deltas[w*deltaPad] = job.sweepPart(w)
		sp.wg.Done()
	}
}

// Sweep runs one pull iteration of c over the partition bounds (len
// parts+1, as produced by PartitionByEdges for the pool's part count)
// and returns the L1 delta summed in part order — bit-deterministic
// for a fixed partition. See the type comment for the cancellation
// contract.
func (sp *SweepPool) Sweep(ctx context.Context, c *CSR, next, cur, p, d []float64, eps, danglingMass float64, bounds []int) float64 {
	return sp.round(sweepJob{ctx: ctx, c: c, next: next, cur: cur, p: p, d: d,
		bounds: bounds, eps: eps, danglingMass: danglingMass})
}

// SweepScaled is Sweep on the scaled path of a uniform snapshot: the
// caller runs ScaleInto first; scaled is read-only during the round.
func (sp *SweepPool) SweepScaled(ctx context.Context, c *CSR, next, scaled, cur, p, d []float64, eps, danglingMass float64, bounds []int) float64 {
	return sp.round(sweepJob{ctx: ctx, c: c, next: next, scaled: scaled, cur: cur, p: p, d: d,
		bounds: bounds, eps: eps, danglingMass: danglingMass})
}

// round broadcasts job to the resident workers, sweeps part 0 on the
// calling goroutine, joins the barrier and reduces the padded delta
// slots in part order.
func (sp *SweepPool) round(job sweepJob) float64 {
	sp.wg.Add(len(sp.jobs))
	for _, ch := range sp.jobs {
		ch <- job
	}
	sp.deltas[0] = job.sweepPart(0)
	sp.wg.Wait()
	delta := 0.0
	for w := 0; w < sp.parts; w++ {
		delta += sp.deltas[w*deltaPad]
	}
	return delta
}

// Close stops the resident workers and recycles the pool's scratch.
// The pool must not be used afterwards. Close must not run
// concurrently with a round (the engines call it after the
// convergence loop exits).
func (sp *SweepPool) Close() {
	for _, ch := range sp.jobs {
		close(ch)
	}
	sp.jobs = nil
	PutVec(sp.deltas)
	sp.deltas = nil
}
