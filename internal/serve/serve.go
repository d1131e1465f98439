// Package serve turns the ApproxRank library into a ranking-as-a-service
// daemon: a long-lived HTTP server that holds one preprocessed
// core.Context per global graph and answers subgraph-rank and hybrid
// search queries at high QPS with only local per-query cost — the
// paper's "preprocess the global graph once" argument, cached all the
// way to the network edge.
//
// Four cooperating mechanisms keep the serving path cheap and bounded,
// and every subgraph a request names — a single /v1/rank, each item of a
// batch, a /v1/search — goes through all four on one path (rankScores):
//
//  1. an LRU cache of converged results keyed by canonical subgraph
//     identity (sorted node-ID hash, verified exactly), so a repeat
//     query under the same configuration skips the chain build and the
//     power iteration, and from a result's second /v1/rank hit on its
//     scores are written from the text its first hit encoded; a
//     /v1/rank body byte for byte equal to one a hit already answered is
//     matched on its raw bytes (maphash, verified exactly) and answered
//     from that text before it is decoded, sorted or hashed by id;
//  2. single-flight coalescing, so N concurrent requests for the same
//     uncached subgraph trigger one computation and share the result;
//  3. bounded admission — a semaphore-gated compute tier with a bounded
//     wait queue and per-request deadlines, one token per computation,
//     answering 429/503 with Retry-After under overload instead of
//     melting;
//  4. a versioned on-disk score cache loaded at startup, so restarts are
//     warm (see disk.go for the consistency rules).
//
// Endpoints: POST /v1/rank (subgraph → scores; also accepts a batch of
// subgraphs, a fail-fast fan-out over the same path whose survivors are
// served beside per-item errors), POST /v1/search (terms + subgraph →
// score-fused top-K), and GET /v1/stats (the counters in Stats).
package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/search"
)

// Options configures a Server. Context is required; everything else has
// serving-grade defaults.
type Options struct {
	// Context is the preprocessed global graph (core.NewContext).
	Context *core.Context
	// Terms optionally holds one term bag per GLOBAL page (indexed by
	// page id), enabling /v1/search. nil disables the search endpoint.
	Terms [][]uint32
	// Rank carries the default rank parameters (epsilon, tolerance, max
	// iterations, parallelism). Requests may override epsilon, tolerance
	// and max iterations per call; Deadline is ignored in favor of the
	// request timeout below.
	Rank core.Config
	// CacheEntries bounds the LRU of cached subgraph entries. Default 128.
	CacheEntries int
	// MaxInFlight bounds concurrently running computations, a batch's
	// included (admission semaphore, one token per computation); a batch
	// runs at most this many items at once. Default core's parallel
	// default (the CPU count).
	MaxInFlight int
	// MaxQueue bounds how many admitted requests may WAIT for a compute
	// token; beyond it requests are rejected with 429. Default
	// 4×MaxInFlight.
	MaxQueue int
	// RequestTimeout is the default per-request compute budget (queue
	// wait included). Default 10s.
	RequestTimeout time.Duration
	// MaxTimeout caps a request-supplied timeout_ms. Default 30s.
	MaxTimeout time.Duration
	// MaxBatch bounds the number of subgraphs in one batch request.
	// Default 256.
	MaxBatch int
	// DiskCache is the path of the persistent score cache ("" disables).
	// The Server never writes it implicitly — call SaveDiskCache (e.g.
	// on shutdown) and LoadDiskCache (at startup).
	DiskCache string
	// BaseContext, when non-nil, parents every computation's context, so
	// cancelling it drains the compute tier. Default context.Background —
	// computations are NOT tied to any single request's context, because
	// coalesced waiters share them.
	BaseContext context.Context
}

// flight is one in-progress computation that concurrent identical
// requests coalesce onto. res/err are written under the server mutex
// before done is closed and read under it after.
type flight struct {
	ids    []graph.NodeID
	cfgKey string
	done   chan struct{}
	res    *core.Result
	err    error
}

// Server is the ranking daemon's HTTP surface. All mutable state (LRU
// cache, in-flight table, counters) is guarded by one mutex; the
// computations themselves run outside it.
type Server struct {
	gctx       *core.Context
	terms      [][]uint32
	rank       core.Config
	defTimeout time.Duration
	maxTimeout time.Duration
	maxBatch   int
	diskPath   string
	sig        uint64
	base       context.Context
	adm        *admission
	mux        *http.ServeMux

	mu      sync.Mutex
	cache   *lruCache
	flights map[uint64][]*flight
	stats   Stats
	// computeHook, when set (tests only), runs inside each computation
	// while it holds its admission token, before the iteration starts —
	// the seam the load-shaped tests use to observe coalescing and
	// admission deterministically.
	computeHook func()
}

// NewServer validates opts and builds the daemon (without loading the
// disk cache — call LoadDiskCache explicitly so callers can log it).
func NewServer(opts Options) (*Server, error) {
	if opts.Context == nil {
		return nil, fmt.Errorf("serve: nil core context")
	}
	if opts.Terms != nil && len(opts.Terms) != opts.Context.Graph().NumNodes() {
		return nil, fmt.Errorf("serve: %d term bags for %d pages", len(opts.Terms), opts.Context.Graph().NumNodes())
	}
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 128
	}
	if opts.CacheEntries < 1 {
		return nil, fmt.Errorf("serve: CacheEntries %d < 1", opts.CacheEntries)
	}
	if opts.MaxInFlight == 0 {
		opts.MaxInFlight = defaultInFlight()
	}
	if opts.MaxInFlight < 1 {
		return nil, fmt.Errorf("serve: MaxInFlight %d < 1", opts.MaxInFlight)
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 4 * opts.MaxInFlight
	}
	if opts.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: negative MaxQueue %d", opts.MaxQueue)
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.MaxTimeout == 0 {
		opts.MaxTimeout = 30 * time.Second
	}
	if opts.RequestTimeout < 0 || opts.MaxTimeout < 0 {
		return nil, fmt.Errorf("serve: negative timeout")
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 256
	}
	if opts.BaseContext == nil {
		opts.BaseContext = context.Background()
	}
	s := &Server{
		gctx:       opts.Context,
		terms:      opts.Terms,
		rank:       opts.Rank,
		defTimeout: opts.RequestTimeout,
		maxTimeout: opts.MaxTimeout,
		maxBatch:   opts.MaxBatch,
		diskPath:   opts.DiskCache,
		sig:        GraphSignature(opts.Context.Graph()),
		base:       opts.BaseContext,
		adm:        newAdmission(opts.MaxInFlight, opts.MaxQueue),
		cache:      newLRU(opts.CacheEntries),
		flights:    make(map[uint64][]*flight),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/rank", s.handleRank)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsSnapshotLocked()
}

// cfgKey canonicalizes the parameters that select a converged result.
// Deadline and Parallelism are deliberately excluded: a result that
// converged under any deadline is valid under every other, and the
// worker count only reassociates floating-point sums within the
// convergence tolerance.
func cfgKey(cfg core.Config) string {
	return strconv.FormatFloat(cfg.Epsilon, 'g', -1, 64) + ";" +
		strconv.FormatFloat(cfg.Tolerance, 'g', -1, 64) + ";" +
		strconv.Itoa(cfg.MaxIterations)
}

// rankScores answers one subgraph under the configuration whose cfgKey
// is key. It is the one serving path every request takes, for a single
// /v1/rank, each item of a batch and /v1/search alike: result cache →
// in-flight coalescing → admission-gated computation, whose result is
// stored for the next caller. It returns the converged result and
// whether the cache answered it; a result hit also returns the entry's
// stored tail for key, nil until the entry's first /v1/rank hit stores
// one (keepHit).
func (s *Server) rankScores(reqCtx context.Context, ids []graph.NodeID, key string, cfg core.Config) (*core.Result, bool, []byte, error) {
	h := hashIDs(ids)
	s.mu.Lock()
	if e, ok := s.cache.get(h, ids); ok {
		if res, ok2 := e.results[key]; ok2 {
			s.stats.ResultHits++
			tail := e.tails[key]
			s.mu.Unlock()
			return res, true, tail, nil
		}
	}
	fl := s.matchFlightLocked(h, ids, key)
	if fl != nil {
		s.stats.CoalescedWaits++
		s.mu.Unlock()
	} else {
		fl = &flight{ids: ids, cfgKey: key, done: make(chan struct{})}
		s.flights[h] = append(s.flights[h], fl)
		s.mu.Unlock()
		go s.runFlight(fl, h, cfg)
	}
	select {
	case <-fl.done:
	case <-reqCtx.Done():
		// This request's budget expired while the shared computation was
		// still running; the computation itself continues for the others.
		return nil, false, nil, reqCtx.Err()
	}
	s.mu.Lock()
	res, err := fl.res, fl.err
	s.mu.Unlock()
	return res, false, nil, err
}

// matchFlightLocked finds an in-flight computation for the exact
// identity and configuration. Caller holds s.mu.
func (s *Server) matchFlightLocked(h uint64, ids []graph.NodeID, key string) *flight {
	for _, fl := range s.flights[h] {
		if fl.cfgKey == key && idsEqual(fl.ids, ids) {
			return fl
		}
	}
	return nil
}

// runFlight executes one coalesced computation and publishes its outcome:
// the result is stored and the flight removed in one hold of the mutex,
// then done is closed — so a request can never miss both the flight and
// the cached result.
func (s *Server) runFlight(fl *flight, h uint64, cfg core.Config) {
	res, err := s.compute(fl.ids, cfg)
	s.mu.Lock()
	if err == nil {
		s.storeResult(fl.ids, h, fl.cfgKey, res)
	}
	fl.res, fl.err = res, err
	bucket := s.flights[h]
	for i, b := range bucket {
		if b == fl {
			bucket[i] = bucket[len(bucket)-1]
			s.flights[h] = bucket[:len(bucket)-1]
			break
		}
	}
	if len(s.flights[h]) == 0 {
		delete(s.flights, h)
	}
	s.mu.Unlock()
	close(fl.done)
}

// compute runs one admission-gated computation: it takes a token, builds
// the subgraph's chain and iterates it. The request budget (cfg.Deadline)
// covers the queue wait AND the iteration: the context carrying it is
// derived here, before acquire, and RunCtx inherits whatever remains of
// it.
func (s *Server) compute(ids []graph.NodeID, cfg core.Config) (*core.Result, error) {
	ctx := s.base
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(s.base, cfg.Deadline)
		defer cancel()
		cfg.Deadline = 0 // budget already carried by ctx; don't restart it at RunCtx
	}
	if err := s.adm.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.adm.release()

	s.mu.Lock()
	s.stats.InFlight++
	s.stats.Misses++
	hook := s.computeHook
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.stats.InFlight--
		s.mu.Unlock()
	}()
	if hook != nil {
		hook()
	}

	// The Subgraph's O(N) index lives only while the chain is built: the
	// chain keeps the id list, not the index, and the entry keeps neither.
	sub, err := graph.NewSubgraph(s.gctx.Graph(), ids)
	if err != nil {
		return nil, badRequest(err)
	}
	chain, err := core.NewApproxChainCtx(s.gctx, sub)
	if err != nil {
		return nil, badRequest(err)
	}
	s.mu.Lock()
	s.stats.Computations++
	s.mu.Unlock()
	return chain.RunCtx(ctx, cfg)
}

// storeResult caches a converged result under the canonical identity,
// creating or refreshing the LRU entry. A result already cached for key
// is kept, with the tail and raw body its hits stored: flights compute
// each (ids, key) once and the disk load skips present entries, so no
// path has a better one. The caller holds s.mu.
func (s *Server) storeResult(ids []graph.NodeID, h uint64, key string, res *core.Result) {
	e, ok := s.cache.get(h, ids)
	if !ok {
		e = &entry{
			hash:    h,
			ids:     ids,
			results: make(map[string]*core.Result),
			engines: make(map[string]*search.Engine),
		}
		s.stats.Evictions += int64(s.cache.add(e))
	}
	if _, ok := e.results[key]; !ok {
		e.results[key] = res
	}
}

// keepHit keeps what a /v1/rank tail hit of res under key leaves for the
// next hit on the entry for ids: tail, the encoded hit response of res
// after its node list, if the entry holds none for key yet; and raw, the
// request's body (hashed to rawHash), registered for the raw tier if it
// is no longer than tail, so a registered body never costs more than the
// answer it selects. Both only while res is still the result cached
// there: a result replaced since it was read must not get the old
// result's tail, and a body is registered only where a tail answers it.
func (s *Server) keepHit(ids []graph.NodeID, key string, res *core.Result, tail []byte, rawHash uint64, raw []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.cache.lookup(hashIDs(ids), ids)
	if el == nil {
		return
	}
	e := el.Value.(*entry)
	if e.results[key] != res {
		return
	}
	if e.tails[key] == nil {
		if e.tails == nil {
			e.tails = make(map[string][]byte, 1)
		}
		e.tails[key] = tail
	}
	if len(raw) <= len(tail) {
		s.cache.setRaw(el, rawHash, raw, key)
	}
}

// searchEngine returns (building and caching if needed) the search
// engine for a ranked subgraph: the index over the subgraph's term bags
// fused with the configuration's converged scores.
func (s *Server) searchEngine(ids []graph.NodeID, key string, res *core.Result) (*search.Engine, error) {
	h := hashIDs(ids)
	s.mu.Lock()
	var eng *search.Engine
	if e, ok := s.cache.get(h, ids); ok {
		eng = e.engines[key]
	}
	s.mu.Unlock()
	if eng != nil {
		return eng, nil
	}
	// Entries keep no Subgraph, so an engine miss builds a transient
	// one; the engine keeps only its id list.
	sub, err := graph.NewSubgraph(s.gctx.Graph(), ids)
	if err != nil {
		return nil, badRequest(err)
	}
	localTerms := make([][]uint32, sub.N())
	for li, gid := range sub.Local {
		localTerms[li] = s.terms[gid]
	}
	eng, err = search.NewEngine(sub, localTerms, res.Scores)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.stats.EnginesBuilt++
	if e, ok := s.cache.get(h, ids); ok {
		e.engines[key] = eng
	}
	s.mu.Unlock()
	return eng, nil
}

// defaultInFlight admits one computation per schedulable CPU: the
// chains are CPU-bound, so more in-flight work than threads only adds
// contention (the same cap core.RankMany applies to its workers).
func defaultInFlight() int {
	if n := pagerank.DefaultParallelism(); n > 1 {
		return n
	}
	return 1
}
