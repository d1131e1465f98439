package kernel

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"
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
			partDeltas[w] = c.SweepRange(next, cur, p, d, bounds[w], bounds[w+1], eps, danglingMass)
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
// vectors and partition for the given part count.
func benchSweepSetup(b *testing.B, n, parts int) (*CSR, []float64, []float64, []float64, []int) {
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
	bounds := PartitionByEdges(c.InOff, parts)
	return c, next, cur, p, bounds
}

// BenchmarkSweepPooled measures one round of the persistent pool:
// resident workers, a broadcast/join barrier, padded delta slots. The
// pool is spawned once outside the timer, as the engines do.
func BenchmarkSweepPooled(b *testing.B) {
	for _, parts := range []int{1, 4} {
		b.Run(partsLabel(parts), func(b *testing.B) {
			c, next, cur, p, bounds := benchSweepSetup(b, 4000, parts)
			pool := NewSweepPool(len(bounds) - 1)
			defer pool.Close()
			ctx := context.Background()
			dm := c.DanglingMass(cur)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.Sweep(ctx, c, next, cur, p, p, 0.85, dm, bounds)
			}
		})
	}
}

// BenchmarkSweepRespawn measures the same round paying the old
// per-round costs: parts goroutine spawns, WaitGroup churn, adjacent
// delta slots.
func BenchmarkSweepRespawn(b *testing.B) {
	for _, parts := range []int{1, 4} {
		b.Run(partsLabel(parts), func(b *testing.B) {
			c, next, cur, p, bounds := benchSweepSetup(b, 4000, parts)
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
