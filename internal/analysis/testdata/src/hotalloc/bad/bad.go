// Package pagerank (by name one of the iteration engines the hotalloc
// checker covers) triggers the checker: allocations and unbounded
// append growth inside the power-iteration loop.
package pagerank

type result struct {
	deltas []float64
}

// Compute allocates a fresh buffer and grows a slice every iteration.
func Compute(maxIterations int) []float64 {
	res := &result{}
	scores := make([]float64, 8)
	for iter := 1; iter <= maxIterations; iter++ {
		buf := make([]float64, len(scores))
		copy(buf, scores)
		res.deltas = append(res.deltas, buf[0])
	}
	return scores
}

// Step allocates inside the step function Iterate runs every iteration.
func Step(maxIterations int) []float64 {
	scores := make([]float64, 8)
	Iterate(maxIterations, func() float64 {
		buf := make([]float64, len(scores))
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
