// Package pagerank stays clean under the hotalloc checker: buffers are
// sized once before the power-iteration loop.
package pagerank

// Compute preallocates with explicit capacity; appends stay in place.
func Compute(maxIterations int) []float64 {
	scores := make([]float64, 8)
	deltas := make([]float64, 0, maxIterations)
	for iter := 1; iter <= maxIterations; iter++ {
		deltas = append(deltas, float64(iter))
	}
	_ = deltas
	return scores
}

// Setup loops without the iteration convention may allocate freely.
func Setup(blocks [][]int) [][]float64 {
	out := make([][]float64, len(blocks))
	for i, b := range blocks {
		out[i] = make([]float64, len(b))
	}
	return out
}

// PerIteration intentionally reallocates; the sentinel records why.
func PerIteration(maxIterations int) {
	for iter := 1; iter <= maxIterations; iter++ {
		//arlint:allow hotalloc fixture: a fresh buffer is needed per iteration
		buf := make([]float64, 4)
		_ = buf
	}
}

// Step sizes its scratch once, outside the step function Iterate runs
// every iteration.
func Step(maxIterations int) []float64 {
	scores := make([]float64, 8)
	buf := make([]float64, len(scores))
	Iterate(maxIterations, func() float64 {
		copy(buf, scores)
		return buf[0]
	})
	return scores
}

// Iterate stands in for kernel.Iterate: it calls step up to maxIter
// times.
func Iterate(maxIter int, step func() float64) {
	for k := 0; k < maxIter; k++ {
		step()
	}
}
