package graph

import (
	"runtime"

	"repro/internal/par"
)

// Parallel in-CSR build. Deriving the in-adjacency from a finished
// out-CSR is the dominant cost of loading a v2 file whose writer
// omitted the in-sections, and part of every Builder.Build (text loads
// included), so it runs as a partitioned counting sort over a resident
// par.Team (the team under kernel.SweepPool: spawn once, broadcast
// rounds, caller works as worker 0):
//
//	phase 1  each worker counts in-degrees for its contiguous source
//	         range into a private count array — no shared writes.
//	phase 2  a sequential pass turns the per-worker counts into
//	         absolute write cursors while filling inOff, fixing the
//	         exact slot every edge will land in.
//	phase 3  each worker re-scans its own source range in order and
//	         scatters sources (and weights) through its private
//	         cursors — every slot is written exactly once, by exactly
//	         one worker.
//
// Because worker ranges are ascending contiguous source blocks and the
// cursor layout orders worker w's edges after worker w-1's within each
// in-row, the output is bit-identical to the sequential build (each
// in-row sorted by ascending source), independent of worker count —
// pinned by test across 1/2/4/8 workers.

// buildIn derives the in-CSR (and in-weights) from a finished out-CSR,
// in parallel when the graph is big enough to pay for the team.
func buildIn(g *Graph) {
	buildInParallel(g, buildWorkers(g.n, len(g.outAdj)))
}

// buildWorkers picks the team size for a parallel in-CSR build: bounded
// by GOMAXPROCS, capped so the per-worker count arrays (W·n·4 bytes)
// stay within a 256 MiB budget, and 1 for graphs too small to amortize
// the barriers or too large for the int32 cursors.
func buildWorkers(n, m int) int {
	const minEdges = 1 << 17
	if m < minEdges || int64(m) > 1<<31-1 {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	for w > 1 && int64(w)*int64(n)*4 > 1<<28 {
		w--
	}
	return w
}

// buildInParallel is the worker-count-explicit build; tests drive it
// directly to pin bit-identity across team sizes.
func buildInParallel(g *Graph, workers int) {
	m := len(g.outAdj)
	g.inOff = make([]int64, g.n+1)
	g.inAdj = make([]NodeID, m)
	if g.outW != nil {
		g.inW = make([]float64, m)
	}
	if workers <= 1 {
		buildInSeq(g)
		return
	}

	// Contiguous source ranges balanced by edge count, so phase 1 and
	// phase 3 hand each worker a similar share of the scatter work. Split
	// clamps the range count on graphs with fewer nodes than workers.
	bounds := par.Split(g.outOff, workers)
	workers = len(bounds) - 1
	counts := make([][]int32, workers)
	for w := 0; w < workers; w++ {
		counts[w] = make([]int32, g.n)
	}

	// One team for both rounds: one spawn per build, not one per phase.
	var team par.Team
	team.Start(workers)
	defer team.Stop()
	team.Run(func(w int) {
		countRange(g.outAdj, g.outOff[bounds[w]], g.outOff[bounds[w+1]], counts[w])
	})

	// Convert per-worker counts to absolute write cursors in place while
	// filling inOff: for in-row v, worker 0's edges occupy the first
	// slots, worker 1's the next, and so on — matching the order the
	// sequential build (ascending source) would produce.
	total := int64(0)
	for v := 0; v < g.n; v++ {
		g.inOff[v] = total
		for w := 0; w < workers; w++ {
			c := counts[w][v]
			counts[w][v] = int32(total)
			total += int64(c)
		}
	}
	g.inOff[g.n] = total

	team.Run(func(w int) {
		lo, hi := bounds[w], bounds[w+1]
		if g.inW != nil {
			scatterRangeW(g.outOff, g.outAdj, g.outW, lo, hi, counts[w], g.inAdj, g.inW)
		} else {
			scatterRange(g.outOff, g.outAdj, lo, hi, counts[w], g.inAdj)
		}
	})
}

// buildInSeq is the sequential in-CSR build: count in-degrees, prefix
// sum, cursor scatter in ascending source order (so each in-row comes
// out sorted by source). inOff/inAdj/inW are already allocated.
func buildInSeq(g *Graph) {
	for _, v := range g.outAdj {
		g.inOff[v+1]++
	}
	for u := 0; u < g.n; u++ {
		g.inOff[u+1] += g.inOff[u]
	}
	cursor := make([]int64, g.n)
	copy(cursor, g.inOff[:g.n])
	for u := 0; u < g.n; u++ {
		for k := g.outOff[u]; k < g.outOff[u+1]; k++ {
			v := g.outAdj[k]
			slot := cursor[v]
			g.inAdj[slot] = NodeID(u)
			if g.inW != nil {
				g.inW[slot] = g.outW[k]
			}
			cursor[v]++
		}
	}
}

// countRange tallies the in-degree contribution of the edge slots
// [lo, hi) into cnt. cnt is this worker's private array — no sharing.
//
//arlint:hot
func countRange(outAdj []NodeID, lo, hi int64, cnt []int32) {
	for k := lo; k < hi; k++ {
		cnt[outAdj[k]]++
	}
}

// scatterRange writes the in-adjacency slots owned by one worker: it
// walks the worker's source range in ascending order and places each
// edge's source at the worker's private cursor for the target row.
//
//arlint:hot
func scatterRange(outOff []int64, outAdj []NodeID, lo, hi int, cur []int32, inAdj []NodeID) {
	for u := lo; u < hi; u++ {
		for k := outOff[u]; k < outOff[u+1]; k++ {
			v := outAdj[k]
			inAdj[cur[v]] = NodeID(u)
			cur[v]++
		}
	}
}

// scatterRangeW is scatterRange for weighted graphs: the in-weight
// rides along to the same slot.
//
//arlint:hot
func scatterRangeW(outOff []int64, outAdj []NodeID, outW []float64, lo, hi int, cur []int32, inAdj []NodeID, inW []float64) {
	for u := lo; u < hi; u++ {
		for k := outOff[u]; k < outOff[u+1]; k++ {
			v := outAdj[k]
			slot := cur[v]
			inAdj[slot] = NodeID(u)
			inW[slot] = outW[k]
			cur[v]++
		}
	}
}
