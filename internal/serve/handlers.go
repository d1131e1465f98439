package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
)

// maxBodyBytes bounds request bodies: a million-node subgraph id list is
// ~8 MB of JSON; anything bigger is not a rank query.
const maxBodyBytes = 16 << 20

// maxRequestIterations caps a request's max_iterations. Nothing is
// sized from the cap up front (kernel.Iterate grows its delta history
// from 64 entries as steps run); what it bounds is the Deltas a cached
// result keeps, 8 bytes per iteration: at most 800 KB per entry, far
// past any convergence the tolerances reach.
const maxRequestIterations = 100_000

// retryAfterSeconds is the Retry-After hint on 429/503 responses. The
// admission queue drains at compute speed, so "soon" is honest; the
// value exists so well-behaved clients back off at all.
const retryAfterSeconds = "1"

// errNoNodes rejects requests with an empty subgraph.
var errNoNodes = errors.New("serve: empty node list")

// nodeRangeError rejects node ids outside the global graph.
type nodeRangeError struct {
	id uint32
	n  int
}

func (e *nodeRangeError) Error() string {
	return fmt.Sprintf("serve: node %d outside global graph (N=%d)", e.id, e.n)
}

// errBadRequest marks errors caused by the request (as opposed to
// overload or deadline), so the handler can answer 400.
var errBadRequest = errors.New("bad request")

// badRequest wraps err as a client error.
func badRequest(err error) error {
	return fmt.Errorf("%w: %w", errBadRequest, err)
}

// rankRequest is the body of POST /v1/rank. Exactly one of Nodes
// (single subgraph) or Subgraphs (batch) must be set. The rank
// parameters default to the server's configuration when zero.
type rankRequest struct {
	Nodes     []uint32   `json:"nodes,omitempty"`
	Subgraphs [][]uint32 `json:"subgraphs,omitempty"`

	TimeoutMS     int64   `json:"timeout_ms,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Tolerance     float64 `json:"tolerance,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
}

// rankResult is one ranked subgraph: scores positionally aligned with
// the canonical (sorted-distinct) node list.
type rankResult struct {
	Nodes      []uint32  `json:"nodes"`
	Scores     []float64 `json:"scores"`
	Lambda     float64   `json:"lambda"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Cached     bool      `json:"cached"`
}

// batchItem is one entry of a batch response: a result or an error.
type batchItem struct {
	Result *rankResult `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// searchRequest is the body of POST /v1/search: a conjunctive term query
// over a subgraph, answered with the K highest-ranked matching pages.
type searchRequest struct {
	Nodes []uint32 `json:"nodes"`
	Terms []uint32 `json:"terms"`
	K     int      `json:"k,omitempty"`

	TimeoutMS     int64   `json:"timeout_ms,omitempty"`
	Epsilon       float64 `json:"epsilon,omitempty"`
	Tolerance     float64 `json:"tolerance,omitempty"`
	MaxIterations int     `json:"max_iterations,omitempty"`
}

type searchHit struct {
	Page  uint32  `json:"page"`
	Score float64 `json:"score"`
}

type searchResponse struct {
	Hits    []searchHit `json:"hits"`
	Matches int         `json:"matches"`
	Cached  bool        `json:"cached"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// requestConfig merges the server's rank defaults with a request's
// overrides and budget. Validation happens here so configuration
// mistakes answer 400 rather than surfacing as opaque compute failures.
func (s *Server) requestConfig(eps, tol float64, maxIter int, timeoutMS int64) (core.Config, error) {
	cfg := s.rank
	if eps != 0 {
		if eps <= 0 || eps >= 1 {
			return cfg, badRequest(fmt.Errorf("epsilon %v outside (0,1)", eps))
		}
		cfg.Epsilon = eps
	}
	if tol != 0 {
		if tol < 0 {
			return cfg, badRequest(fmt.Errorf("negative tolerance %v", tol))
		}
		cfg.Tolerance = tol
	}
	if maxIter != 0 {
		if maxIter < 1 {
			return cfg, badRequest(fmt.Errorf("max_iterations %d < 1", maxIter))
		}
		if maxIter > maxRequestIterations {
			return cfg, badRequest(fmt.Errorf("max_iterations %d exceeds limit %d", maxIter, maxRequestIterations))
		}
		cfg.MaxIterations = maxIter
	}
	if timeoutMS < 0 {
		return cfg, badRequest(fmt.Errorf("negative timeout_ms %d", timeoutMS))
	}
	timeout := s.defTimeout
	if timeoutMS > 0 {
		// Compare in milliseconds: multiplying first overflows a Duration
		// for timeout_ms past ~9.2e12 and wraps into a tiny or negative
		// budget instead of the cap.
		timeout = s.maxTimeout
		if timeoutMS <= int64(s.maxTimeout/time.Millisecond) {
			timeout = time.Duration(timeoutMS) * time.Millisecond
		}
	}
	cfg.Deadline = timeout
	// Normalize zero-valued knobs to their concrete defaults NOW, so the
	// result-cache key never aliases "default" and its explicit value.
	if err := cfg.Normalize(); err != nil {
		return cfg, badRequest(err)
	}
	return cfg, nil
}

// handleRank serves POST /v1/rank: single subgraph or batch. A body
// that the raw tier holds is answered before it is decoded (rankRaw);
// every other body takes the full path, and a tail hit there registers
// its body for the raw tier (keepHit).
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer releaseBody(body)
	raw := body.Bytes()
	rawHash := hashRaw(raw)
	if s.rankRaw(w, rawHash, raw) {
		return
	}
	req, err := decodeRankRequest(raw)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if (len(req.Nodes) == 0) == (len(req.Subgraphs) == 0) {
		s.writeError(w, badRequest(errors.New(`exactly one of "nodes" or "subgraphs" must be set`)))
		return
	}
	cfg, err := s.requestConfig(req.Epsilon, req.Tolerance, req.MaxIterations, req.TimeoutMS)
	if err != nil {
		s.writeError(w, err)
		return
	}

	if len(req.Subgraphs) > 0 {
		s.handleRankBatch(w, r, req.Subgraphs, cfg)
		return
	}

	ids, err := canonicalIDs(req.Nodes, s.gctx.Graph().NumNodes())
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	s.mu.Lock()
	s.stats.RankRequests++
	s.mu.Unlock()
	reqCtx, cancel := context.WithTimeout(r.Context(), cfg.Deadline)
	defer cancel()
	key := cfgKey(cfg)
	res, cached, tail, err := s.rankScores(reqCtx, ids, key, cfg)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if !cached {
		writeJSON(w, http.StatusOK, rankResultOf(ids, res, false))
		return
	}
	if tail != nil {
		s.mu.Lock()
		s.stats.TailHits++
		s.mu.Unlock()
	} else if tail, err = hitTail(res); err != nil {
		// encoding/json refuses the result (a non-finite score):
		// answer exactly what writeJSON answers for it.
		writeJSON(w, http.StatusOK, rankResultOf(ids, res, true))
		return
	}
	writeHit(w, ids, tail)
	s.keepHit(ids, key, res, tail, rawHash, raw)
}

// rankRaw answers a /v1/rank body that is byte for byte the body the raw
// tier holds under rawHash, and reports whether it did. The answer is
// the registered entry's stored tail behind its ids — what a full-path
// tail hit writes — and it counts and promotes the entry as one does,
// plus raw_hits; the body is never decoded, canonicalized or hashed by
// id.
func (s *Server) rankRaw(w http.ResponseWriter, rawHash uint64, raw []byte) bool {
	s.mu.Lock()
	e, ok := s.cache.getRaw(rawHash, raw)
	if !ok {
		s.mu.Unlock()
		return false
	}
	tail := e.tails[e.rawKey]
	s.stats.RankRequests++
	s.stats.ResultHits++
	s.stats.TailHits++
	s.stats.RawHits++
	s.mu.Unlock()
	writeHit(w, e.ids, tail)
	return true
}

// handleRankBatch serves the batch form of /v1/rank as a fail-fast
// fan-out over rankScores, the path a single query takes: an item is a
// result hit, joins an in-flight computation or starts its own, which
// holds an admission token of its own. Items that fail validation are
// answered per-item; so is an item whose computation refuses its
// subgraph (the whole graph). Any other error cancels the rest, and the
// items left unanswered carry it beside the survivors' results — the
// response is 200 with per-item results and errors, partial success
// being the point, unless no item got a result and the error is an
// overload or deadline: then the whole batch is refused as a single
// query would be.
func (s *Server) handleRankBatch(w http.ResponseWriter, r *http.Request, items [][]uint32, cfg core.Config) {
	if len(items) > s.maxBatch {
		s.writeError(w, badRequest(fmt.Errorf("batch of %d subgraphs exceeds limit %d", len(items), s.maxBatch)))
		return
	}
	s.mu.Lock()
	s.stats.BatchRequests++
	s.mu.Unlock()
	out := make([]batchItem, len(items))
	idLists := make([][]graph.NodeID, len(items))
	valid := make([]int, 0, len(items))
	for i, nodes := range items {
		ids, err := canonicalIDs(nodes, s.gctx.Graph().NumNodes())
		if err != nil {
			out[i].Error = err.Error()
			continue
		}
		idLists[i] = ids
		valid = append(valid, i)
	}

	reqCtx, cancel := context.WithTimeout(r.Context(), cfg.Deadline)
	defer cancel()
	key := cfgKey(cfg)
	// One worker per admission slot: the batch never queues more
	// computations than can run at once.
	at, err := par.Each(reqCtx, len(valid), cap(s.adm.sem), func(ctx context.Context, j int) error {
		i := valid[j]
		res, cached, _, err := s.rankScores(ctx, idLists[i], key, cfg)
		if errors.Is(err, errBadRequest) {
			out[i].Error = err.Error()
			return nil
		}
		if err != nil {
			return err
		}
		out[i].Result = rankResultOf(idLists[i], res, cached)
		return nil
	})
	served := 0
	for _, it := range out {
		if it.Result != nil {
			served++
		}
	}
	if err != nil {
		if served == 0 && (errors.Is(err, errOverloaded) ||
			errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			s.writeError(w, err)
			return
		}
		if at >= 0 {
			err = fmt.Errorf("serve: batch item %d: %w", valid[at], err)
		}
		for i := range out {
			if out[i].Result == nil && out[i].Error == "" {
				out[i].Error = err.Error()
			}
		}
	}
	s.mu.Lock()
	s.stats.BatchChainsRun += int64(served)
	s.stats.BatchChainsFailed += int64(len(items) - served)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Results []batchItem `json:"results"`
	}{Results: out})
}

// handleSearch serves POST /v1/search: rank the subgraph through the
// same cached path, then answer the conjunctive term query from the
// score-fused engine.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.terms == nil {
		s.writeError(w, badRequest(errors.New("no term corpus loaded; /v1/search is disabled")))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer releaseBody(body)
	var req searchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	if len(req.Terms) == 0 {
		s.writeError(w, badRequest(errors.New(`"terms" must be non-empty`)))
		return
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 1 {
		s.writeError(w, badRequest(fmt.Errorf("k=%d < 1", req.K)))
		return
	}
	cfg, err := s.requestConfig(req.Epsilon, req.Tolerance, req.MaxIterations, req.TimeoutMS)
	if err != nil {
		s.writeError(w, err)
		return
	}
	ids, err := canonicalIDs(req.Nodes, s.gctx.Graph().NumNodes())
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	s.mu.Lock()
	s.stats.SearchRequests++
	s.mu.Unlock()
	reqCtx, cancel := context.WithTimeout(r.Context(), cfg.Deadline)
	defer cancel()
	key := cfgKey(cfg)
	res, cached, _, err := s.rankScores(reqCtx, ids, key, cfg)
	if err != nil {
		s.writeError(w, err)
		return
	}
	eng, err := s.searchEngine(ids, key, res)
	if err != nil {
		s.writeError(w, err)
		return
	}
	hits, err := eng.TopK(req.Terms, req.K)
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	resp := searchResponse{
		Hits:    make([]searchHit, len(hits)),
		Matches: eng.MatchCount(req.Terms),
		Cached:  cached,
	}
	for i, h := range hits {
		resp.Hits[i] = searchHit{Page: uint32(h.Page), Score: h.Score}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st := s.statsSnapshotLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// writeError maps an error to its HTTP status — 400 for request
// mistakes, 429 for a full admission queue, 503 for an exceeded budget —
// counts it, and writes the JSON error body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, errOverloaded):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.mu.Lock()
		s.stats.AdmissionRejected++
		s.mu.Unlock()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
		s.mu.Lock()
		s.stats.DeadlineFailures++
		s.mu.Unlock()
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeJSON writes one JSON response. An encode failure after the header
// has gone out is unactionable (the client sees the truncated body), so
// the error is deliberately discarded.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //arlint:allow errflow the status line is already sent; the client sees the truncated body
}

// hitTail encodes a result hit's response after its node list:
// `"scores":[…],"lambda":…,"iterations":…,"converged":…,"cached":true}`.
// It marshals rankResult itself with no nodes and cuts the node list
// off, so the field order and every float's text stay encoding/json's.
func hitTail(res *core.Result) ([]byte, error) {
	b, err := json.Marshal(rankResultOf([]graph.NodeID{}, res, true))
	if err != nil {
		return nil, err
	}
	tail, ok := bytes.CutPrefix(b, []byte(`{"nodes":[],`))
	if !ok {
		return nil, errors.New("serve: rank result encoding lacks its node list")
	}
	return tail, nil
}

// hitBufs recycles the buffers writeHit assembles bodies in.
var hitBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeHit writes a result hit's 200 response from its canonical ids and
// stored tail. The body is byte for byte what writeJSON writes for
// rankResultOf(ids, res, true), in one Write as writeJSON does, but only
// the ids are formatted per request.
func writeHit(w http.ResponseWriter, ids []graph.NodeID, tail []byte) {
	bp := hitBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"nodes":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	b = append(b, "],"...)
	b = append(b, tail...)
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) //arlint:allow errflow the status line is already sent; the client sees the truncated body
	*bp = b
	hitBufs.Put(bp)
}

// rankResultOf shapes a core result for the wire. nodes is the canonical
// id list itself (graph.NodeID is uint32), encoded without a copy.
func rankResultOf(nodes []graph.NodeID, res *core.Result, cached bool) *rankResult {
	return &rankResult{
		Nodes:      nodes,
		Scores:     res.Scores,
		Lambda:     res.Lambda,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Cached:     cached,
	}
}
