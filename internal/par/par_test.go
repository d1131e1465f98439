package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestTeamRounds: every round calls the function once for each worker
// id (one worker for Start(0)), and a round's writes are visible when
// Run returns — over many rounds of one resident team, at several
// sizes.
func TestTeamRounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, workers := range []int{0, 1, 2, 4, 7} {
		var team Team
		team.Start(workers)
		hits := make([]int, max(workers, 1))
		for round := 1; round <= 50; round++ {
			team.Run(func(w int) { hits[w]++ })
			for w, h := range hits {
				if h != round {
					t.Fatalf("workers=%d round %d: worker %d ran %d times", workers, round, w, h)
				}
			}
		}
		team.Stop()
	}
}

// TestTeamStopWithoutRounds: a team stopped right after Start, before
// its goroutines have run, still ends every one of them.
func TestTeamStopWithoutRounds(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		var team Team
		team.Start(4)
		team.Stop()
	}
	settle(t, "Stop", before)
}

// TestSplit: bounds are ascending, cover [0, n], balance row length
// plus one per index, and clamp the part count to [1, n].
func TestSplit(t *testing.T) {
	// Rows 0..9 with lengths 0, 10, 0, 10, ...: cost 1, 11, 1, 11, ...,
	// 60 in all. A range ends at the first index whose cumulative cost
	// before it reaches the next multiple of 60/parts.
	off := make([]int64, 11)
	for v := 0; v < 10; v++ {
		off[v+1] = off[v] + int64(10*(v%2))
	}
	for _, tc := range []struct {
		parts int
		want  []int
	}{
		{1, []int{0, 10}},
		{2, []int{0, 6, 10}},
		{3, []int{0, 4, 8, 10}},
		{0, []int{0, 10}},
		{40, []int{0, 2, 2, 4, 4, 6, 6, 8, 8, 10, 10}}, // 10 parts, half empty
	} {
		got := Split(off, tc.parts)
		if len(got) != len(tc.want) {
			t.Fatalf("Split(%d) = %v, want %v", tc.parts, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("Split(%d) = %v, want %v", tc.parts, got, tc.want)
			}
		}
	}
}

// settle waits until the goroutine count falls back to before; the poll
// covers the runtime's exit bookkeeping after a worker's last Done.
func settle(t *testing.T, what string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines left running, %d before", what, runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEach: every index is called exactly once, by at most workers
// calls at a time (one for workers ≤ 0, none for n = 0), and the
// workers are gone when Each returns.
func TestEach(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	for _, tc := range []struct{ n, workers, peak int }{{50, 4, 4}, {50, 0, 1}, {3, 8, 3}, {0, 2, 0}} {
		calls := make([]atomic.Int32, tc.n)
		var cur, peak atomic.Int32
		i, err := Each(context.Background(), tc.n, tc.workers, func(_ context.Context, i int) error {
			c := cur.Add(1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			cur.Add(-1)
			calls[i].Add(1)
			return nil
		})
		if i != -1 || err != nil {
			t.Fatalf("n=%d workers=%d: Each = %d, %v", tc.n, tc.workers, i, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("n=%d workers=%d: index %d called %d times", tc.n, tc.workers, i, c)
			}
		}
		if p := int(peak.Load()); p > tc.peak || tc.n > 0 && p < 1 {
			t.Fatalf("n=%d workers=%d: %d calls at once, want at most %d", tc.n, tc.workers, p, tc.peak)
		}
		settle(t, "Each", before)
	}
}

// TestEachFailFast: the first failing call cancels the ctx of the calls
// still running and stops the hand-out. With one worker, the indices
// after the failure are never called; with four, calls blocked on ctx
// end, and Each reports the failing index and its error, not the
// cancellations that followed.
func TestEachFailFast(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	poison := errors.New("poison")
	var called []int
	i, err := Each(context.Background(), 7, 1, func(_ context.Context, i int) error {
		called = append(called, i)
		if i == 3 {
			return poison
		}
		return nil
	})
	if i != 3 || err != poison || len(called) != 4 {
		t.Fatalf("one worker: Each = %d, %v after calls %v; want 3, poison after 0..3", i, err, called)
	}
	settle(t, "one worker", before)

	i, err = Each(context.Background(), 100, 4, func(ctx context.Context, i int) error {
		if i == 2 {
			return poison
		}
		<-ctx.Done() // every other call waits for the failure
		return ctx.Err()
	})
	if i != 2 || err != poison {
		t.Fatalf("four workers: Each = %d, %v; want 2, poison", i, err)
	}
	settle(t, "four workers", before)
}

// TestEachCtxDone: a ctx that has ended before Each starts hands out no
// index, and Each reports its error as -1 and ctx.Err().
func TestEachCtxDone(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	i, err := Each(ctx, 100, 2, func(ctx context.Context, i int) error {
		calls.Add(1)
		return ctx.Err()
	})
	if i != -1 || !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Fatalf("Each = %d, %v after %d calls; want -1, context.Canceled and no call", i, err, calls.Load())
	}
	settle(t, "cancelled ctx", before)
}
