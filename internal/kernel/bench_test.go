package kernel

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/par"
)

// respawnSweep is the pre-SweepPool parallel sweep, kept here as the
// benchmark reference: one goroutine spawned and joined per part per
// round, partial deltas in adjacent slots of one array. The pooled
// sweep must beat this on per-round overhead; the benchjson CI gate
// holds the pair's ratio against the cached baseline. Its adjacent
// delta slots share one cache line across workers; the pool's padded
// slots (deltaPad) give each worker its own line.
func respawnSweep(ctx context.Context, c *CSR, next, cur, p, d []float64, eps, danglingMass float64, bounds []int, partDeltas []float64) float64 {
	parts := len(bounds) - 1
	var wg sync.WaitGroup
	for w := 0; w < parts; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			partDeltas[w] = c.sweepRange(next, cur, p, d, bounds[w], bounds[w+1], eps, danglingMass)
		}(w)
	}
	wg.Wait()
	delta := 0.0
	for _, pd := range partDeltas[:parts] {
		delta += pd
	}
	return delta
}

// benchSweepSetup freezes a random graph and sizes the iteration
// vectors.
func benchSweepSetup(b *testing.B, n int) (*CSR, []float64, []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(b, rng, n, false)
	c := Snapshot(g)
	cur := make([]float64, c.N)
	for i := range cur {
		cur[i] = rng.Float64()
	}
	next := make([]float64, c.N)
	p := uniformVec(c.N)
	return c, next, cur, p
}

// BenchmarkSweepPooled measures one round of the persistent pool:
// resident workers, a broadcast/join barrier, padded delta slots, and
// the pool's own dangling mass and scaling of the uniform snapshot. The
// pool is spawned once outside the timer, as the engines do, and runs
// at most GOMAXPROCS parts.
func BenchmarkSweepPooled(b *testing.B) {
	for _, parts := range []int{1, 4} {
		b.Run(partsLabel(parts), func(b *testing.B) {
			c, next, cur, p := benchSweepSetup(b, 4000)
			pool := NewSweepPool(c, parts)
			defer pool.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Sweep(ctx, next, cur, p, p, 0.85)
			}
		})
	}
}

// BenchmarkSweepRespawn measures the same round paying the old
// per-round costs: one goroutine spawn per part, WaitGroup churn,
// adjacent delta slots. It splits at the pool's part count, so the pair
// compares like with like.
func BenchmarkSweepRespawn(b *testing.B) {
	for _, parts := range []int{1, 4} {
		b.Run(partsLabel(parts), func(b *testing.B) {
			c, next, cur, p := benchSweepSetup(b, 4000)
			bounds := par.Split(c.InOff, PoolParts(parts))
			partDeltas := make([]float64, len(bounds)-1)
			ctx := context.Background()
			dm := c.DanglingMass(cur)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				respawnSweep(ctx, c, next, cur, p, p, 0.85, dm, bounds, partDeltas)
			}
		})
	}
}

func partsLabel(parts int) string {
	return "parts=" + strconv.Itoa(parts)
}
