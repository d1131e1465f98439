package par

import (
	"runtime"
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
// its goroutines have run, still ends every one of them. Stop waits
// for their last Done; the poll covers the runtime's exit bookkeeping
// after it.
func TestTeamStopWithoutRounds(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		var team Team
		team.Start(4)
		team.Stop()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
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
