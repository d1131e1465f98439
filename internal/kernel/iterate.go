package kernel

import (
	"context"
	"fmt"
)

// Iterate is the convergence loop every ranking engine runs: it calls
// step until the L1 delta step returns falls below tol or maxIter steps
// have run, and returns the exact-size delta history (one entry per
// step, so len(deltas) is the iteration count) and whether tol was
// reached. The step owns its vectors, including the cur/next swap and
// any extrapolation or freezing it applies between sweeps.
//
// ctx is polled after every step, before that step's delta is trusted:
// a cancelled SweepPool round leaves next stale, so no cancelled step
// can converge. On cancellation Iterate returns nil deltas and an error
// wrapping ctx.Err() that names the steps completed before it, as
// "cancelled at iteration k"; engines prefix it with their own name.
//
// The history grows through the package pools from a small start and
// is copied out exact-size, so nothing is sized from maxIter: a caller
// passing math.MaxInt pays for the steps it runs, and a warm call
// allocates only the returned slice.
func Iterate(ctx context.Context, maxIter int, tol float64, step func() float64) (deltas []float64, converged bool, err error) {
	hist := GetVec(64)
	var iter int // steps whose delta is recorded
	for iter = 0; iter < maxIter && !converged; iter++ {
		delta := step()
		if err := ctx.Err(); err != nil {
			PutVec(hist)
			return nil, false, fmt.Errorf("cancelled at iteration %d: %w", iter, err)
		}
		if iter == len(hist) {
			grown := GetVec(2 * iter)
			copy(grown, hist)
			PutVec(hist)
			hist = grown
		}
		hist[iter] = delta
		converged = delta < tol
	}
	deltas = make([]float64, iter)
	copy(deltas, hist)
	PutVec(hist)
	return deltas, converged, nil
}
