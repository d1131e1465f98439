// Package par holds the concurrency pieces this repository shares:
// Split, an edge-balanced cut of [0, n) into contiguous ranges, and
// Team, a resident round-barrier worker team, which every partitioned
// pass over a CSR runs on (kernel's SweepPool and graph's parallel
// in-CSR build; the package sits below both because kernel's tests
// import graph); and Each, the bounded fail-fast fan-out under core's
// RankManyCtx and serve's batch requests.
package par

import (
	"context"
	"sync"
)

// Split cuts [0, n), n = len(off)−1, into parts contiguous ranges of
// roughly equal cost, costing each index its row length plus one (the
// constant per-row work). Node-count-balanced ranges degenerate under
// power-law degrees — one range inherits every hub — while the
// cumulative-cost walk here bounds each range near total/parts. parts
// is clamped to [1, n]; the result is parts+1 ascending bounds, and
// ranges next to a costly index may be empty.
func Split(off []int64, parts int) []int {
	n := len(off) - 1
	parts = max(min(parts, n), 1)
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

// Team is a resident, round-barriered worker team. A caller starts it
// once, runs any number of rounds and stops it, so goroutine creation
// is paid once per team instead of once per worker per round. The
// calling goroutine works as worker 0: a team of W workers keeps
// exactly W runnable goroutines, and a one-worker team runs each round
// inline with no synchronization at all.
//
// Each round is a broadcast/join barrier: Run hands the round's
// function to the resident goroutines, one worker id each, calls it for
// worker 0 itself and waits for the rest. Writes made before Run are
// visible to every worker, and every worker's writes are visible after
// Run returns.
//
// A Team is not safe for concurrent rounds: one Run at a time.
type Team struct {
	workers int
	jobs    chan job // buffered workers−1: a round's sends never block
	wg      sync.WaitGroup
}

// job is one worker's share of a round.
type job struct {
	f func(w int)
	w int
}

// Start spawns workers−1 resident goroutines (none when workers ≤ 1).
func (t *Team) Start(workers int) {
	t.workers = max(workers, 1)
	if t.workers == 1 {
		return
	}
	t.jobs = make(chan job, t.workers-1)
	for i := 1; i < t.workers; i++ {
		go t.work(t.jobs)
	}
}

// work is the body of one resident goroutine: run a worker's share,
// hit the barrier, sleep until the next round. It ends when Stop closes
// jobs, and reports its exit on the same WaitGroup.
func (t *Team) work(jobs <-chan job) {
	for j := range jobs {
		j.f(j.w)
		t.wg.Done()
	}
	t.wg.Done()
}

// Run calls f(w) once for every worker w of the Start count, f(0) on the
// calling goroutine, and returns when every call has.
func (t *Team) Run(f func(w int)) {
	t.wg.Add(t.workers - 1)
	for w := 1; w < t.workers; w++ {
		t.jobs <- job{f, w}
	}
	f(0)
	t.wg.Wait()
}

// Stop ends the resident goroutines and returns once every one has
// exited. The team must not run rounds afterwards, and Stop must not
// run concurrently with a round.
func (t *Team) Stop() {
	if t.jobs == nil {
		return
	}
	t.wg.Add(t.workers - 1)
	close(t.jobs)
	t.jobs = nil
	t.wg.Wait()
}

// Each calls fn(ctx, i) for every i in [0, n) on at most workers
// goroutines (clamped to [1, n]), handing the indices out in order.
// The first call to return an error cancels the ctx every call runs
// under and stops the hand-out, so later indices may never be called;
// Each waits for every call it started and returns that call's index
// and error. Without a failing call it returns -1 and ctx.Err(): a ctx
// that ended before or between hand-outs leaves indices uncalled as
// well (a ctx done on entry, all of them).
func Each(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) (int, error) {
	each, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		wg       sync.WaitGroup
	)
	work := make(chan int)
	for w := 0; w < min(max(workers, 1), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := fn(each, i); err != nil {
					// Calls see a cancelled ctx only after some call failed
					// (or the caller's ctx ended), so the first recorded
					// error is the root cause, never a later cancellation.
					mu.Lock()
					if firstErr == nil {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n && each.Err() == nil; i++ {
		select {
		case work <- i:
		case <-each.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstIdx, firstErr
	}
	return -1, ctx.Err()
}
