package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/graph"
	"repro/internal/par"
)

// RankMany runs ApproxRank over many subgraphs of one global graph,
// sharing a single Context and dispatching the independent chains across
// workers. This is the paper's multi-subgraph scenario ("preprocess the
// global graph for one time, and decide A_approx for each subgraph with
// only local cost") — localized search engines serving many domains, or
// a personalization service ranking many user-defined regions.
//
// parallelism ≤ 0 selects one worker per subgraph, capped at
// runtime.GOMAXPROCS(0) (the chains are CPU-bound, so more workers than
// schedulable threads only adds contention). Results are positionally
// aligned with subs. The first error aborts the batch: no further
// chains are dispatched, in-flight chains are cancelled, and the
// returned error identifies the failing subgraph.
//
// On error the results slice is still returned alongside it: entries for
// chains that completed before the batch was cancelled hold their full
// Result, every other entry is nil. A caller that wants all-or-nothing
// semantics discards the slice when err != nil; a serving tier can
// instead answer for the survivors of a poisoned batch and fail only the
// poisoned entries.
//
// Each chain's iteration buffers come from the shared kernel pools, so
// a worker recycles one set of scratch vectors across every subgraph it
// processes: the steady-state batch allocates only each Result's
// exact-size Scores/Deltas plus the per-chain topology.
//
// RankMany is RankManyCtx with context.Background(); use RankManyCtx to
// bound the batch with a caller deadline or OS signal.
func RankMany(gctx *Context, subs []*graph.Subgraph, cfg Config, parallelism int) ([]*Result, error) {
	return RankManyCtx(context.Background(), gctx, subs, cfg, parallelism)
}

// RankManyCtx is RankMany under a context. Cancelling ctx stops the
// dispatch loop and propagates into every in-flight chain's power
// iteration; the first per-subgraph error does the same via an internal
// batch context, so one poisoned subgraph cannot keep the rest of the
// batch burning CPU. Like RankMany it returns the partial results slice
// alongside any error.
func RankManyCtx(ctx context.Context, gctx *Context, subs []*graph.Subgraph, cfg Config, parallelism int) ([]*Result, error) {
	if gctx == nil {
		return nil, fmt.Errorf("core: nil context")
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("core: no subgraphs")
	}
	results := make([]*Result, len(subs))
	err := rankManyInto(ctx, gctx, subs, cfg, parallelism, results)
	return results, err
}

// rankManyInto runs the batch into a caller-provided result slice. It is
// the testable core of RankManyCtx: on error the slice shows exactly
// which chains completed before the batch was cancelled (entries for
// never-dispatched subgraphs stay nil), which the fail-fast regression
// test asserts on. The fan-out is par.Each's: the first failing chain
// cancels the others and stops dispatch.
func rankManyInto(ctx context.Context, gctx *Context, subs []*graph.Subgraph, cfg Config, parallelism int, results []*Result) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	i, err := par.Each(ctx, len(subs), parallelism, rankInto(gctx, subs, cfg, results))
	if i >= 0 {
		return fmt.Errorf("core: subgraph %d: %w", i, err)
	}
	if err != nil {
		// The caller's ctx fired between dispatches, before any chain
		// tripped on it.
		return fmt.Errorf("core: rank many: %w", err)
	}
	return nil
}

// rankInto is a batch's par.Each step: it builds subgraph i's chain and
// runs it into results[i] under the step's context, the one par.Each
// cancels on the batch's first failure. Outside rankManyInto, the step
// cannot capture the caller's ctx in its place.
func rankInto(gctx *Context, subs []*graph.Subgraph, cfg Config, results []*Result) func(context.Context, int) error {
	return func(ctx context.Context, i int) error {
		// Per-subgraph validation (nil entries, wrong global graph)
		// surfaces here so a bad entry mid-batch aborts the rest
		// instead of being scanned for upfront at O(len(subs)).
		chain, err := NewApproxChainCtx(gctx, subs[i])
		if err != nil {
			return err
		}
		res, err := chain.RunCtx(ctx, cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}
}
