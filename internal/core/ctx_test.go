package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// countdownContext is a deterministic cancellation source: its Err flips
// to context.Canceled after the n-th call. The power iteration polls
// ctx.Err() (rather than selecting on Done), so this drives the
// mid-iteration cancellation path without any timing dependence.
type countdownContext struct {
	context.Context
	mu   sync.Mutex
	left int
}

func newCountdown(calls int) *countdownContext {
	return &countdownContext{Context: context.Background(), left: calls}
}

func (c *countdownContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestRunCtxPreCancelled(t *testing.T) {
	_, sub := figureGraph(t)
	chain, err := NewApproxChain(sub)
	if err != nil {
		t.Fatalf("NewApproxChain: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := chain.RunCtx(ctx, Config{})
	if err == nil {
		t.Fatal("pre-cancelled context produced a result")
	}
	if res != nil {
		t.Errorf("got partial result %+v alongside error", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

func TestRunCtxCancelledMidIteration(t *testing.T) {
	_, sub := figureGraph(t)
	chain, err := NewApproxChain(sub)
	if err != nil {
		t.Fatalf("NewApproxChain: %v", err)
	}
	// Allow exactly one check to pass, so the cancellation lands at the
	// second check, after step 2, with one iteration complete. The
	// tolerance is unreachably small so the run cannot converge first.
	res, err := chain.RunCtx(newCountdown(1), Config{Tolerance: 1e-300, MaxIterations: 160})
	if err == nil {
		t.Fatal("cancelled run converged")
	}
	if res != nil {
		t.Errorf("got partial result alongside error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if want := "core: power iteration cancelled at iteration 1: "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not start %q", err, want)
	}
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	_, sub := figureGraph(t)
	chain, err := NewApproxChain(sub)
	if err != nil {
		t.Fatalf("NewApproxChain: %v", err)
	}
	plain, err := chain.Run(Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	withCtx, err := chain.RunCtx(context.Background(), Config{})
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	for i := range plain.Scores {
		if plain.Scores[i] != withCtx.Scores[i] {
			t.Fatalf("score %d differs: %v vs %v", i, plain.Scores[i], withCtx.Scores[i])
		}
	}
}

func TestConfigDeadline(t *testing.T) {
	_, sub := figureGraph(t)
	chain, err := NewApproxChain(sub)
	if err != nil {
		t.Fatalf("NewApproxChain: %v", err)
	}
	// A deadline that has effectively already passed: the first check
	// (after step 1) must see it.
	_, err = chain.Run(Config{Deadline: time.Nanosecond, Tolerance: 0, MaxIterations: 1000})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	// Negative deadlines are a config error, not an instant timeout.
	if _, err := chain.Run(Config{Deadline: -time.Second}); err == nil ||
		errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("negative deadline: got %v, want a validation error", err)
	}
	// A generous deadline changes nothing.
	res, err := chain.Run(Config{Deadline: time.Hour})
	if err != nil || !res.Converged {
		t.Errorf("generous deadline: err=%v converged=%v", err, res != nil && res.Converged)
	}
}

// TestRankManyFailFast is the regression test for the documented
// fail-fast contract: a poisoned subgraph mid-batch must abort the rest —
// chains after the failing index never run.
func TestRankManyFailFast(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g, _ := randomSubgraph(t, rng, 100, 4)
	gctx := NewContext(g)

	// A subgraph of a DIFFERENT global graph: construction inside the
	// worker fails (checkCtx), which is the cheapest deterministic poison.
	otherG, _ := randomSubgraph(t, rng, 20, 3)
	poisoned, err := graph.NewSubgraph(otherG, []graph.NodeID{0, 1, 2})
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}

	mkSub := func(seed int) *graph.Subgraph {
		perm := rand.New(rand.NewSource(int64(seed))).Perm(100)
		local := make([]graph.NodeID, 10)
		for j := range local {
			local[j] = graph.NodeID(perm[j])
		}
		sub, err := graph.NewSubgraph(g, local)
		if err != nil {
			t.Fatalf("NewSubgraph: %v", err)
		}
		return sub
	}

	const poisonAt = 3
	subs := make([]*graph.Subgraph, 7)
	for i := range subs {
		if i == poisonAt {
			subs[i] = poisoned
		} else {
			subs[i] = mkSub(i)
		}
	}

	// parallelism 1 makes dispatch order deterministic: chains 0..2
	// complete, chain 3 fails, chains 4..6 must never start.
	results := make([]*Result, len(subs))
	err = rankManyInto(context.Background(), gctx, subs, Config{}, 1, results)
	if err == nil {
		t.Fatal("poisoned batch succeeded")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("subgraph %d", poisonAt)) {
		t.Errorf("error %q does not identify subgraph %d", err, poisonAt)
	}
	for i := 0; i < poisonAt; i++ {
		if results[i] == nil {
			t.Errorf("chain %d (before the failure) did not complete", i)
		}
	}
	for i := poisonAt; i < len(subs); i++ {
		if results[i] != nil {
			t.Errorf("chain %d ran despite the batch failing at %d", i, poisonAt)
		}
	}

	// The public wrapper exposes the same partial results: the chains
	// that completed before the poison survive the batch error, so a
	// serving tier can answer for them.
	res, err := RankMany(gctx, subs, Config{}, 1)
	if err == nil {
		t.Fatal("RankMany on poisoned batch succeeded")
	}
	if len(res) != len(subs) {
		t.Fatalf("RankMany partial results: len=%d, want %d", len(res), len(subs))
	}
	for i := 0; i < poisonAt; i++ {
		if res[i] == nil {
			t.Errorf("RankMany discarded completed chain %d on batch failure", i)
		} else if len(res[i].Scores) != subs[i].N() {
			t.Errorf("RankMany survivor %d truncated: %d scores for %d pages", i, len(res[i].Scores), subs[i].N())
		}
	}
	for i := poisonAt; i < len(subs); i++ {
		if res[i] != nil {
			t.Errorf("RankMany reported a result for chain %d at/after the poison", i)
		}
	}
}

// TestRankManyFailFastParallel exercises the same contract with real
// concurrency (meaningful under -race): whatever the interleaving, the
// batch must fail, the error must name a genuinely poisoned subgraph, and
// every recorded result must be complete.
func TestRankManyFailFastParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, _ := randomSubgraph(t, rng, 80, 4)
	gctx := NewContext(g)
	otherG, _ := randomSubgraph(t, rng, 20, 3)
	poisoned, err := graph.NewSubgraph(otherG, []graph.NodeID{0, 1})
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	subs := make([]*graph.Subgraph, 16)
	for i := range subs {
		if i%5 == 4 {
			subs[i] = poisoned
			continue
		}
		perm := rand.New(rand.NewSource(int64(i))).Perm(80)
		local := make([]graph.NodeID, 8)
		for j := range local {
			local[j] = graph.NodeID(perm[j])
		}
		subs[i], err = graph.NewSubgraph(g, local)
		if err != nil {
			t.Fatalf("NewSubgraph: %v", err)
		}
	}
	results := make([]*Result, len(subs))
	err = rankManyInto(context.Background(), gctx, subs, Config{}, 4, results)
	if err == nil {
		t.Fatal("poisoned batch succeeded")
	}
	var idx int
	if _, scanErr := fmt.Sscanf(err.Error(), "core: subgraph %d:", &idx); scanErr != nil {
		t.Fatalf("error %q does not identify a subgraph", err)
	}
	if idx%5 != 4 {
		t.Errorf("error blames subgraph %d, which was not poisoned", idx)
	}
	for i, r := range results {
		if r != nil && len(r.Scores) != subs[i].N() {
			t.Errorf("chain %d recorded a truncated result", i)
		}
	}
}

func TestRankManyCtxCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, sub := randomSubgraph(t, rng, 60, 4)
	gctx := NewContext(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RankManyCtx(ctx, gctx, []*graph.Subgraph{sub, sub}, Config{}, 2)
	if err == nil {
		t.Fatalf("cancelled batch succeeded: res=%v", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	// A pre-cancelled context means no chain ever ran: the partial slice
	// is positionally complete but empty.
	for i, r := range res {
		if r != nil {
			t.Errorf("pre-cancelled batch recorded a result for chain %d", i)
		}
	}
}
