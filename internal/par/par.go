// Package par holds the two pieces every partitioned pass over a CSR in
// this repository runs on: Split, an edge-balanced cut of [0, n) into
// contiguous ranges, and Team, a resident round-barrier worker team.
// kernel's SweepPool and graph's parallel in-CSR build both use them;
// the package sits below both because kernel's tests import graph.
package par

import "sync"

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
