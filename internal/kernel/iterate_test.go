package kernel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// countdown steps return n−1, n−2, …: a delta history with a known
// shape.
func countdown(n int) func() float64 {
	return func() float64 {
		n--
		return float64(n)
	}
}

// cancelAfter is a context whose Err turns context.Canceled after k
// calls.
type cancelAfter struct {
	context.Context
	k int
}

func (c *cancelAfter) Err() error {
	if c.k <= 0 {
		return context.Canceled
	}
	c.k--
	return nil
}

func TestIterate(t *testing.T) {
	bg := context.Background()
	t.Run("stops on the first delta below tol", func(t *testing.T) {
		// Strictly below: a delta equal to tol does not converge.
		deltas, converged, err := Iterate(bg, 100, 5, countdown(10))
		if err != nil || !converged {
			t.Fatalf("converged=%v err=%v", converged, err)
		}
		want := []float64{9, 8, 7, 6, 5, 4}
		if len(deltas) != len(want) {
			t.Fatalf("deltas %v, want %v", deltas, want)
		}
		for i := range want {
			if deltas[i] != want[i] {
				t.Fatalf("deltas %v, want %v", deltas, want)
			}
		}
	})
	t.Run("runs exactly maxIter steps when it never converges", func(t *testing.T) {
		steps := 0
		deltas, converged, err := Iterate(bg, 7, 0, func() float64 { steps++; return 1 })
		if err != nil || converged || len(deltas) != 7 || steps != 7 {
			t.Fatalf("converged=%v err=%v deltas=%d steps=%d, want 7 unconverged", converged, err, len(deltas), steps)
		}
	})
	t.Run("cancellation after step k reports iteration k", func(t *testing.T) {
		for k := 0; k < 3; k++ {
			deltas, converged, err := Iterate(&cancelAfter{bg, k}, 100, 0, countdown(1000))
			if deltas != nil || converged {
				t.Fatalf("k=%d: deltas=%v converged=%v alongside cancellation", k, deltas, converged)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d: error %v does not wrap context.Canceled", k, err)
			}
			if want := fmt.Sprintf("cancelled at iteration %d: context canceled", k); err.Error() != want {
				t.Fatalf("k=%d: error %q, want %q", k, err, want)
			}
		}
	})
	t.Run("history stays exact past its pooled start", func(t *testing.T) {
		const n = 1000
		deltas, converged, err := Iterate(bg, n, 0.5, countdown(n))
		if err != nil || !converged || len(deltas) != n {
			t.Fatalf("converged=%v err=%v len=%d, want %d", converged, err, len(deltas), n)
		}
		for i, d := range deltas {
			if d != float64(n-1-i) {
				t.Fatalf("deltas[%d] = %v, want %d", i, d, n-1-i)
			}
		}
	})
	t.Run("a warm call allocates only the returned slice", func(t *testing.T) {
		step := func() float64 { return 1 }
		run := func() {
			if _, _, err := Iterate(bg, 300, 0, step); err != nil {
				t.Fatal(err)
			}
		}
		// The fewest over up to 50 warm calls: a GC can empty the pools
		// between calls, and under -race sync.Pool drops a quarter of its
		// Puts.
		fewest := math.Inf(1)
		for i := 0; i < 50 && fewest > 1; i++ {
			fewest = min(fewest, testing.AllocsPerRun(1, run))
		}
		if fewest != 1 {
			t.Fatalf("warm Iterate allocated %v times, want 1", fewest)
		}
	})
}
