// Package approxrank is the public API of this repository: a Go
// implementation of the subgraph-ranking framework of Wu & Raschid,
// "ApproxRank: Estimating Rank for a Subgraph" (ICDE 2009), together with
// the substrates its evaluation depends on.
//
// # Overview
//
// Given a global directed web graph with N pages and a subgraph of n local
// pages, the framework estimates PageRank-style scores for the local pages
// that reflect the global link structure without running PageRank on the
// global graph. Both algorithms collapse the N−n external pages into a
// single super-node Λ and run an (n+1)-state random walk:
//
//   - IdealRank assumes the external pages' true PageRank scores are
//     known and reproduces the global scores of the local pages exactly
//     (the paper's Theorem 1).
//   - ApproxRank assumes external pages are equally important; its error
//     against IdealRank is bounded by ε/(1−ε)·‖E−E_approx‖₁ (Theorem 2).
//
// # Quick start
//
//	g := approxrank.MustFromEdges(7, [][2]approxrank.NodeID{{0, 1}, /* … */})
//	sub, _ := approxrank.NewSubgraph(g, []approxrank.NodeID{0, 1, 2, 3})
//	res, _ := approxrank.ApproxRank(sub, approxrank.Config{})
//	// res.Scores[i] estimates the global PageRank of sub.Local[i];
//	// res.Lambda estimates the total score of all external pages.
//
// The subpackages under internal/ hold the implementation: graph engine,
// PageRank engine, the core algorithms, the paper's baselines (local
// PageRank, LPR2, stochastic complementation), ranking metrics, synthetic
// web-graph generation, crawlers, and the experiment harness that
// regenerates the paper's tables and figures (see cmd/experiments).
package approxrank

import (
	"context"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pagerank"
)

// WebConfig parameterizes the synthetic web-graph generator (domains with
// power-law sizes, heavy-tailed degrees, topical locality).
type WebConfig = gen.Config

// WebDataset is a generated global graph with domain and topic labels.
type WebDataset = gen.Dataset

// GenerateWeb builds a synthetic web graph; the same WebConfig (including
// Seed) always yields the same dataset.
func GenerateWeb(cfg WebConfig) (*WebDataset, error) { return gen.Generate(cfg) }

// NodeID identifies a page; ids are dense in [0, NumNodes).
type NodeID = graph.NodeID

// Graph is an immutable directed graph (see internal/graph).
type Graph = graph.Graph

// Builder accumulates edges and produces a Graph.
type Builder = graph.Builder

// Subgraph designates n local pages within a global graph.
type Subgraph = graph.Subgraph

// NodeSet is a bitset over node ids.
type NodeSet = graph.NodeSet

// GraphStats summarizes a graph's degree structure.
type GraphStats = graph.Stats

// Config carries the random-walk parameters shared by all rankers in this
// package; its zero value selects the paper's settings (ε = 0.85, L1
// tolerance 1e-5, ≤1000 iterations).
type Config = core.Config

// Result is the outcome of an extended-chain ranking: per-local-page
// scores plus the Λ score (see core.Result).
type Result = core.Result

// PageRankResult is the outcome of a plain PageRank computation.
type PageRankResult = pagerank.Result

// PageRankOptions configures GlobalPageRank.
type PageRankOptions = pagerank.Options

// Context caches per-global-graph aggregates so chains for many subgraphs
// of the same global graph are built from local information only.
type Context = core.Context

// ExtendedChain is the Λ-extended (n+1)-state Markov chain.
type ExtendedChain = core.ExtendedChain

// SCConfig configures the stochastic-complementation competitor.
type SCConfig = baseline.SCConfig

// SCResult extends a ranking result with SC's expansion telemetry.
type SCResult = baseline.SCResult

// BaselineConfig carries the PageRank parameters of the baselines.
type BaselineConfig = baseline.Config

// NewBuilder returns a Builder for a graph with numNodes nodes.
func NewBuilder(numNodes int) *Builder { return graph.NewBuilder(numNodes) }

// FromEdges builds an unweighted graph from (src, dst) pairs.
func FromEdges(numNodes int, edges [][2]NodeID) (*Graph, error) {
	return graph.FromEdges(numNodes, edges)
}

// MustFromEdges is FromEdges but panics on error (for literals in examples
// and tests).
func MustFromEdges(numNodes int, edges [][2]NodeID) *Graph {
	return graph.MustFromEdges(numNodes, edges)
}

// LoadGraph reads a graph from disk, text edge list or v2 binary, telling
// them apart by the file's content, not its name.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes a graph to disk in the format implied by the extension.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// NewSubgraph designates the given pages as the local subgraph of global.
func NewSubgraph(global *Graph, local []NodeID) (*Subgraph, error) {
	return graph.NewSubgraph(global, local)
}

// NewContext precomputes the global aggregates used by ApproxRankCtx.
func NewContext(g *Graph) *Context { return core.NewContext(g) }

// ApproxRank estimates global PageRank scores for the subgraph assuming
// external pages are equally important (the paper's main algorithm).
func ApproxRank(sub *Subgraph, cfg Config) (*Result, error) {
	return core.ApproxRank(sub, cfg)
}

// ApproxRankCtx is ApproxRank with a shared precomputed Context — the
// multi-subgraph workflow the paper highlights. (The Ctx here is this
// package's Context of global-graph aggregates, not a context.Context;
// for cancellation build a chain and call its RunCtx, or use RankManyCtx
// for batches.)
func ApproxRankCtx(ctx *Context, sub *Subgraph, cfg Config) (*Result, error) {
	return core.ApproxRankCtx(ctx, sub, cfg)
}

// IdealRank computes exact global PageRank scores for the subgraph from
// the known global score vector (Theorem 1).
func IdealRank(sub *Subgraph, globalScores []float64, cfg Config) (*Result, error) {
	return core.IdealRank(sub, globalScores, cfg)
}

// NewApproxChain exposes the ApproxRank extended chain for inspection and
// repeated runs.
func NewApproxChain(sub *Subgraph) (*ExtendedChain, error) {
	return core.NewApproxChain(sub)
}

// NewChainWithExternalScores builds a chain whose Λ row weights external
// pages by an arbitrary non-negative score vector — the generalization
// that subsumes IdealRank (true scores) and ApproxRank (uniform).
func NewChainWithExternalScores(sub *Subgraph, extScores []float64) (*ExtendedChain, error) {
	return core.NewChainWithExternalScores(sub, extScores)
}

// MixExternalScores blends true external scores with the uniform
// assumption (alpha = 0 → ApproxRank's E, alpha = 1 → IdealRank's E).
func MixExternalScores(sub *Subgraph, scores []float64, alpha float64) ([]float64, error) {
	return core.MixExternalScores(sub, scores, alpha)
}

// GlobalPageRank runs the standard PageRank power iteration on g.
func GlobalPageRank(g *Graph, opts PageRankOptions) (*PageRankResult, error) {
	return pagerank.Compute(g, opts)
}

// GlobalPageRankCtx is GlobalPageRank under a context.Context: the power
// iteration checks for cancellation periodically and returns a wrapped
// ctx error instead of a result when it fires.
func GlobalPageRankCtx(ctx context.Context, g *Graph, opts PageRankOptions) (*PageRankResult, error) {
	return pagerank.ComputeCtx(ctx, g, opts)
}

// LocalPageRank is the paper's first baseline: PageRank on the induced
// local graph, ignoring external pages.
func LocalPageRank(sub *Subgraph, cfg BaselineConfig) (*PageRankResult, error) {
	return baseline.LocalPageRank(sub, cfg)
}

// LPR2 is the paper's second baseline: PageRank on the local graph plus a
// naïvely connected artificial external page.
func LPR2(sub *Subgraph, cfg BaselineConfig) (*PageRankResult, error) {
	return baseline.LPR2(sub, cfg)
}

// SC is the stochastic-complementation competitor (Davis & Dhillon,
// KDD 2006).
func SC(sub *Subgraph, cfg SCConfig) (*SCResult, error) {
	return baseline.SC(sub, cfg)
}

// ComputeStats scans a graph and summarizes its degree structure.
func ComputeStats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// BFSCrawl crawls g breadth-first from seed up to maxPages pages — the
// way the paper builds its BFS subgraphs.
func BFSCrawl(g *Graph, seed NodeID, maxPages int) ([]NodeID, error) {
	return crawler.BFS(g, seed, maxPages)
}

// BFSCrawlCtx is BFSCrawl under a context.Context; a cancelled crawl
// returns the pages gathered so far plus a non-nil error wrapping
// ctx.Err().
func BFSCrawlCtx(ctx context.Context, g *Graph, seed NodeID, maxPages int) ([]NodeID, error) {
	return crawler.BFSCtx(ctx, g, seed, maxPages)
}

// CrawlHops returns all pages within the given number of out-link hops of
// the seed set — the paper's topic-subgraph construction.
func CrawlHops(g *Graph, seeds []NodeID, hops int) ([]NodeID, error) {
	return crawler.Hops(g, seeds, hops)
}

// CrawlHopsCtx is CrawlHops under a context.Context; a cancelled crawl
// returns the pages gathered so far plus a non-nil error wrapping
// ctx.Err().
func CrawlHopsCtx(ctx context.Context, g *Graph, seeds []NodeID, hops int) ([]NodeID, error) {
	return crawler.HopsCtx(ctx, g, seeds, hops)
}

// L1 returns the L1 distance between two score vectors (the paper's
// score-accuracy metric).
func L1(a, b []float64) (float64, error) { return metrics.L1(a, b) }

// Footrule returns the Spearman's footrule distance between the partial
// rankings induced by two score vectors, with ties handled by bucket
// positions (the paper's order-accuracy metric).
func Footrule(a, b []float64) (float64, error) { return metrics.FootruleScores(a, b) }

// TopKOverlap returns the fraction of a's top-k pages that are also in
// b's top-k.
func TopKOverlap(a, b []float64, k int) (float64, error) { return metrics.TopKOverlap(a, b, k) }

// Normalize rescales a score vector in place to sum to 1, the convention
// used when comparing restricted global scores against local estimates.
func Normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if s <= 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// EDistance returns ‖E − E_approx‖₁ for the given external score
// estimates — the quantity Theorem 2's bound scales with.
func EDistance(sub *Subgraph, extScores []float64) (float64, error) {
	return core.EDistance(sub, extScores)
}

// ErrorBound returns Theorem 2's computable accuracy certificate
// ε/(1−ε)·‖E − E_approx‖₁: an upper bound on the L1 gap between
// ApproxRank and the chain that uses extScores as external weights,
// without running either. epsilon 0 selects the default 0.85.
func ErrorBound(sub *Subgraph, extScores []float64, epsilon float64) (float64, error) {
	return core.ErrorBound(sub, extScores, epsilon)
}

// RankMany runs ApproxRank over many subgraphs of one global graph,
// sharing a Context and dispatching chains across workers — the paper's
// multi-subgraph scenario. parallelism ≤ 0 selects one worker per
// subgraph, capped at runtime.GOMAXPROCS(0). The first error cancels the
// whole batch (fail-fast); the positionally-aligned results slice is
// returned even then, with the chains that completed before the
// cancellation intact and every other entry nil.
func RankMany(gctx *Context, subs []*Subgraph, cfg Config, parallelism int) ([]*Result, error) {
	return core.RankMany(gctx, subs, cfg, parallelism)
}

// RankManyCtx is RankMany under a context.Context: cancelling ctx stops
// dispatching new chains and aborts the in-flight power iterations, as
// does the batch's first per-subgraph error.
func RankManyCtx(ctx context.Context, gctx *Context, subs []*Subgraph, cfg Config, parallelism int) ([]*Result, error) {
	return core.RankManyCtx(ctx, gctx, subs, cfg, parallelism)
}
