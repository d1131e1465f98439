package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testWeb generates the shared synthetic corpus: a small global graph
// with term bags, deterministic per seed.
func testWeb(t *testing.T, pages int, seed int64) (*gen.Dataset, [][]uint32) {
	t.Helper()
	ds, err := gen.Generate(gen.Config{Pages: pages, Domains: 4, Topics: 4, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	terms, err := gen.AssignTerms(ds, gen.TermConfig{Seed: seed + 1})
	if err != nil {
		t.Fatalf("AssignTerms: %v", err)
	}
	return ds, terms
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// post sends one JSON request and decodes the JSON response into out
// (when out != nil), returning the status code.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func pagesOf(ds *gen.Dataset, domain, n int) []uint32 {
	ids := ds.DomainPages(domain)
	if len(ids) > n {
		ids = ids[:n]
	}
	out := make([]uint32, len(ids))
	for i, id := range ids {
		out[i] = uint32(id)
	}
	return out
}

// TestRankCacheHitMiss: the first query computes, the repeat is a free
// cache hit, and the scores match the library run exactly.
func TestRankCacheHitMiss(t *testing.T) {
	ds, _ := testWeb(t, 400, 1)
	gctx := core.NewContext(ds.Graph)
	s, hs := newTestServer(t, Options{Context: gctx})
	nodes := pagesOf(ds, 0, 20)

	var first rankResult
	if code := post(t, hs.URL+"/v1/rank", rankRequest{Nodes: nodes}, &first); code != http.StatusOK {
		t.Fatalf("first rank: status %d", code)
	}
	if first.Cached || !first.Converged {
		t.Fatalf("first rank: cached=%v converged=%v", first.Cached, first.Converged)
	}
	var second rankResult
	if code := post(t, hs.URL+"/v1/rank", rankRequest{Nodes: nodes}, &second); code != http.StatusOK {
		t.Fatalf("second rank: status %d", code)
	}
	if !second.Cached {
		t.Error("repeat query not served from cache")
	}
	// Requests with the same set in another order share the entry.
	shuffled := append([]uint32{}, nodes...)
	shuffled[0], shuffled[len(shuffled)-1] = shuffled[len(shuffled)-1], shuffled[0]
	shuffled = append(shuffled, nodes[0]) // and a duplicate
	var third rankResult
	if code := post(t, hs.URL+"/v1/rank", rankRequest{Nodes: shuffled}, &third); code != http.StatusOK {
		t.Fatalf("shuffled rank: status %d", code)
	}
	if !third.Cached {
		t.Error("canonicalized repeat not served from cache")
	}

	st := s.Stats()
	if st.Computations != 1 || st.Misses != 1 || st.ResultHits != 2 {
		t.Errorf("stats = %+v, want 1 computation, 1 miss, 2 hits", st)
	}

	// The served scores are the library's, bit for bit.
	sub, err := graph.NewSubgraph(ds.Graph, func() []graph.NodeID {
		ids := make([]graph.NodeID, len(nodes))
		for i, v := range nodes {
			ids[i] = graph.NodeID(v)
		}
		return ids
	}())
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	want, err := core.ApproxRankCtx(gctx, sub, core.Config{})
	if err != nil {
		t.Fatalf("ApproxRankCtx: %v", err)
	}
	if len(first.Scores) != len(want.Scores) {
		t.Fatalf("got %d scores, want %d", len(first.Scores), len(want.Scores))
	}
	for i := range want.Scores {
		if first.Scores[i] != want.Scores[i] {
			t.Fatalf("score %d: served %v, library %v", i, first.Scores[i], want.Scores[i])
		}
	}
}

// TestCoalescingLoadShape is the load-shaped acceptance test: M
// identical concurrent requests for one uncached subgraph must trigger
// exactly 1 computation with M−1 coalesced waits — observed through the
// stats endpoint, not timing.
func TestCoalescingLoadShape(t *testing.T) {
	ds, _ := testWeb(t, 400, 2)
	s, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph)})

	const m = 8
	hook, started, release := blockingHook()
	s.computeHook = hook

	nodes := pagesOf(ds, 1, 16)
	var wg sync.WaitGroup
	codes := make([]int, m)
	results := make([]rankResult, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = post(t, hs.URL+"/v1/rank", rankRequest{Nodes: nodes}, &results[i])
		}(i)
	}
	// The leader is inside the (blocked) computation; wait until every
	// other request has registered as a coalesced waiter, then let the
	// single computation finish.
	<-started
	waitFor(t, "M-1 coalesced waiters", func() bool {
		return s.Stats().CoalescedWaits == m-1
	})
	close(release)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	for i := 1; i < m; i++ {
		if len(results[i].Scores) != len(results[0].Scores) {
			t.Fatalf("request %d: %d scores vs %d", i, len(results[i].Scores), len(results[0].Scores))
		}
		for j := range results[0].Scores {
			if results[i].Scores[j] != results[0].Scores[j] {
				t.Fatalf("request %d: coalesced scores differ at %d", i, j)
			}
		}
	}
	st := s.Stats()
	if st.Computations != 1 {
		t.Errorf("computations = %d, want exactly 1", st.Computations)
	}
	if st.CoalescedWaits != m-1 {
		t.Errorf("coalesced_waits = %d, want %d", st.CoalescedWaits, m-1)
	}
	if st.Misses != 1 || st.ResultHits != 0 {
		t.Errorf("stats = %+v, want 1 miss and 0 hits", st)
	}
}

// TestAdmissionRejection: with a one-slot semaphore and no wait queue, a
// second computation is rejected with 429 and Retry-After while the
// first still runs.
func TestAdmissionRejection(t *testing.T) {
	ds, _ := testWeb(t, 400, 3)
	s, hs := newTestServer(t, Options{
		Context:     core.NewContext(ds.Graph),
		MaxInFlight: 1,
		MaxQueue:    -0, // 0 would default; use explicit below
	})
	// MaxQueue 0 defaults to 4×inflight in NewServer; rebuild with an
	// explicitly tiny queue through the admission gate directly.
	s.adm = newAdmission(1, 0)
	hook, started, release := blockingHook()
	s.computeHook = hook

	var wg sync.WaitGroup
	wg.Add(1)
	var codeA int
	go func() {
		defer wg.Done()
		codeA = post(t, hs.URL+"/v1/rank", rankRequest{Nodes: pagesOf(ds, 0, 12)}, nil)
	}()
	<-started

	buf, _ := json.Marshal(rankRequest{Nodes: pagesOf(ds, 1, 12)})
	resp, err := http.Post(hs.URL+"/v1/rank", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overloaded request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
	wg.Wait()
	if codeA != http.StatusOK {
		t.Errorf("admitted request: status %d", codeA)
	}
	st := s.Stats()
	if st.AdmissionRejected != 1 {
		t.Errorf("admission_rejected = %d, want 1", st.AdmissionRejected)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d after drain, want 0", st.InFlight)
	}
}

// TestDeadline503: a request whose budget expires before the power
// iteration can run fails with 503, and the failure is not cached. The
// compute hook stalls the computation well past the 30ms budget (small
// chains otherwise hit an exact fixed point long before any realistic
// deadline).
func TestDeadline503(t *testing.T) {
	ds, _ := testWeb(t, 400, 4)
	s, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph)})
	s.computeHook = func() { time.Sleep(500 * time.Millisecond) }
	req := rankRequest{
		Nodes:     pagesOf(ds, 2, 16),
		TimeoutMS: 30,
	}
	buf, _ := json.Marshal(req)
	resp, err := http.Post(hs.URL+"/v1/rank", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	st := s.Stats()
	if st.DeadlineFailures < 1 {
		t.Errorf("deadline_failures = %d, want >= 1", st.DeadlineFailures)
	}
	if st.CacheEntries != 0 {
		t.Errorf("failed computation was cached: %d entries", st.CacheEntries)
	}
}

// TestLRUEviction: a one-entry cache evicts on every new subgraph, so an
// A-B-A pattern recomputes A.
func TestLRUEviction(t *testing.T) {
	ds, _ := testWeb(t, 400, 5)
	s, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph), CacheEntries: 1})
	a := pagesOf(ds, 0, 10)
	b := pagesOf(ds, 1, 10)
	for _, nodes := range [][]uint32{a, b, a} {
		if code := post(t, hs.URL+"/v1/rank", rankRequest{Nodes: nodes}, nil); code != http.StatusOK {
			t.Fatalf("rank: status %d", code)
		}
	}
	st := s.Stats()
	if st.Computations != 3 || st.Misses != 3 || st.ResultHits != 0 {
		t.Errorf("stats = %+v, want 3 computations/misses and 0 hits", st)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.CacheEntries != 1 {
		t.Errorf("cache_entries = %d, want 1", st.CacheEntries)
	}
}

// TestDiskCacheWarmRestart is the restart half of the acceptance test: a
// repeat request against a fresh server with the disk cache present is a
// warm hit — answered without any power iteration.
func TestDiskCacheWarmRestart(t *testing.T) {
	ds, _ := testWeb(t, 400, 6)
	path := filepath.Join(t.TempDir(), "cache.gob")
	nodes := pagesOf(ds, 3, 14)

	s1, hs1 := newTestServer(t, Options{Context: core.NewContext(ds.Graph), DiskCache: path})
	var cold rankResult
	if code := post(t, hs1.URL+"/v1/rank", rankRequest{Nodes: nodes}, &cold); code != http.StatusOK {
		t.Fatalf("cold rank: status %d", code)
	}
	if err := s1.SaveDiskCache(); err != nil {
		t.Fatalf("SaveDiskCache: %v", err)
	}

	// "Restart": a brand-new server over the same graph and cache file.
	s2, hs2 := newTestServer(t, Options{Context: core.NewContext(ds.Graph), DiskCache: path})
	n, err := s2.LoadDiskCache()
	if err != nil {
		t.Fatalf("LoadDiskCache: %v", err)
	}
	if n != 1 {
		t.Fatalf("loaded %d entries, want 1", n)
	}
	var warm rankResult
	if code := post(t, hs2.URL+"/v1/rank", rankRequest{Nodes: nodes}, &warm); code != http.StatusOK {
		t.Fatalf("warm rank: status %d", code)
	}
	if !warm.Cached {
		t.Error("restart query not served from the disk-warmed cache")
	}
	st := s2.Stats()
	if st.Computations != 0 || st.Misses != 0 {
		t.Errorf("warm restart ran a power iteration: %+v", st)
	}
	if st.ResultHits != 1 || st.DiskEntriesLoaded != 1 {
		t.Errorf("stats = %+v, want 1 result hit from 1 disk entry", st)
	}
	for i := range cold.Scores {
		if warm.Scores[i] != cold.Scores[i] {
			t.Fatalf("score %d differs across restart: %v vs %v", i, warm.Scores[i], cold.Scores[i])
		}
	}

	// A server over a DIFFERENT graph must reject the file as stale.
	ds2, _ := testWeb(t, 400, 7)
	s3, err := NewServer(Options{Context: core.NewContext(ds2.Graph), DiskCache: path})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if n, err := s3.LoadDiskCache(); err != nil || n != 0 {
		t.Errorf("stale-graph load: n=%d err=%v, want 0 entries", n, err)
	}
}

// TestSearchEndpoint: hybrid ranked search over a cached subgraph; the
// engine is built once and reused.
func TestSearchEndpoint(t *testing.T) {
	ds, terms := testWeb(t, 800, 8)
	s, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph), Terms: terms})
	nodes := pagesOf(ds, 0, 60)

	// Probe the most common term within the subgraph so the query has
	// matches.
	counts := map[uint32]int{}
	var probe uint32
	best := 0
	for _, v := range nodes {
		for _, tm := range terms[v] {
			counts[tm]++
			if counts[tm] > best {
				best, probe = counts[tm], tm
			}
		}
	}
	if best == 0 {
		t.Fatal("no terms in test subgraph")
	}

	var r1 searchResponse
	if code := post(t, hs.URL+"/v1/search", searchRequest{Nodes: nodes, Terms: []uint32{probe}, K: 5}, &r1); code != http.StatusOK {
		t.Fatalf("search: status %d", code)
	}
	if len(r1.Hits) == 0 || r1.Matches != best {
		t.Fatalf("search: %d hits, %d matches (want %d matches)", len(r1.Hits), r1.Matches, best)
	}
	if len(r1.Hits) > 5 {
		t.Fatalf("k=5 returned %d hits", len(r1.Hits))
	}
	member := map[uint32]bool{}
	for _, v := range nodes {
		member[v] = true
	}
	for i, h := range r1.Hits {
		if !member[h.Page] {
			t.Errorf("hit %d outside the subgraph", h.Page)
		}
		if i > 0 && h.Score > r1.Hits[i-1].Score {
			t.Error("hits not score-descending")
		}
	}

	var r2 searchResponse
	if code := post(t, hs.URL+"/v1/search", searchRequest{Nodes: nodes, Terms: []uint32{probe}, K: 5}, &r2); code != http.StatusOK {
		t.Fatalf("repeat search: status %d", code)
	}
	if !r2.Cached {
		t.Error("repeat search did not reuse the cached rank")
	}
	st := s.Stats()
	if st.EnginesBuilt != 1 {
		t.Errorf("engines_built = %d, want 1 (engine must be reused)", st.EnginesBuilt)
	}
	if st.Computations != 1 || st.SearchRequests != 2 {
		t.Errorf("stats = %+v, want 1 computation over 2 search requests", st)
	}
}

// TestBatchPartialResults: a poisoned batch item fails alone; the
// survivors are served and warm the cache for the single-query path.
func TestBatchPartialResults(t *testing.T) {
	ds, _ := testWeb(t, 400, 9)
	s, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph)})
	whole := make([]uint32, ds.Graph.NumNodes())
	for i := range whole {
		whole[i] = uint32(i)
	}
	items := [][]uint32{pagesOf(ds, 0, 10), whole, pagesOf(ds, 1, 10)}

	var resp struct {
		Results []batchItem `json:"results"`
	}
	if code := post(t, hs.URL+"/v1/rank", rankRequest{Subgraphs: items}, &resp); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d items", len(resp.Results))
	}
	if resp.Results[0].Result == nil || resp.Results[2].Result == nil {
		t.Fatalf("survivors not served: %+v", resp.Results)
	}
	if resp.Results[1].Error == "" || resp.Results[1].Result != nil {
		t.Fatalf("poisoned item not failed: %+v", resp.Results[1])
	}
	// Each survivor's nodes are its canonical id list, aligned with its
	// scores.
	for _, i := range []int{0, 2} {
		want, err := canonicalIDs(items[i], ds.Graph.NumNodes())
		if err != nil {
			t.Fatalf("canonicalIDs: %v", err)
		}
		if got := resp.Results[i].Result; !idsEqual(got.Nodes, want) || len(got.Scores) != len(want) {
			t.Errorf("item %d: nodes %v (%d scores), want %v", i, got.Nodes, len(got.Scores), want)
		}
	}
	st := s.Stats()
	if st.BatchChainsRun != 2 || st.BatchChainsFailed != 1 {
		t.Errorf("stats = %+v, want 2 run / 1 failed", st)
	}
	computed := st.Computations

	// The batch warmed the result cache: a single query for a survivor
	// is a free hit.
	var single rankResult
	if code := post(t, hs.URL+"/v1/rank", rankRequest{Nodes: items[0]}, &single); code != http.StatusOK {
		t.Fatalf("post-batch rank: status %d", code)
	}
	if !single.Cached {
		t.Error("batch survivor not cached for the single-query path")
	}
	if s.Stats().Computations != computed {
		t.Errorf("single-query path recomputed a batch survivor")
	}
}

// TestValidation covers the 4xx surface.
func TestValidation(t *testing.T) {
	ds, _ := testWeb(t, 400, 10)
	_, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph)})

	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty body", rankRequest{}, http.StatusBadRequest},
		{"both nodes and subgraphs", rankRequest{Nodes: []uint32{1}, Subgraphs: [][]uint32{{2}}}, http.StatusBadRequest},
		{"node out of range", rankRequest{Nodes: []uint32{0, 400}}, http.StatusBadRequest},
		{"whole graph", rankRequest{Nodes: func() []uint32 {
			v := make([]uint32, 400)
			for i := range v {
				v[i] = uint32(i)
			}
			return v
		}()}, http.StatusBadRequest},
		{"bad epsilon", rankRequest{Nodes: []uint32{1, 2}, Epsilon: 1.5}, http.StatusBadRequest},
		{"negative timeout", rankRequest{Nodes: []uint32{1, 2}, TimeoutMS: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := post(t, hs.URL+"/v1/rank", tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(hs.URL+"/v1/rank", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}

	// Method enforcement.
	getResp, err := http.Get(hs.URL + "/v1/rank")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/rank: status %d, want 405", getResp.StatusCode)
	}

	// Search without a term corpus is a client-visible config error.
	if code := post(t, hs.URL+"/v1/search", searchRequest{Nodes: []uint32{1, 2}, Terms: []uint32{1}}, nil); code != http.StatusBadRequest {
		t.Errorf("search without corpus: status %d, want 400", code)
	}

	// Stats endpoint answers GET only.
	stResp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var st Stats
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	stResp.Body.Close()
}

// TestMaxIterationsCap: a request's max_iterations above
// maxRequestIterations is a 400 answered before any allocation sized by
// it, single and batch alike; the cap itself is still served.
func TestMaxIterationsCap(t *testing.T) {
	ds, _ := testWeb(t, 400, 12)
	s, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph)})
	nodes := pagesOf(ds, 0, 20)

	huge := rankRequest{Nodes: nodes, MaxIterations: 2_000_000_000}
	if code := post(t, hs.URL+"/v1/rank", huge, nil); code != http.StatusBadRequest {
		t.Errorf("max_iterations 2e9: status %d, want 400", code)
	}
	hugeBatch := rankRequest{Subgraphs: [][]uint32{nodes}, MaxIterations: maxRequestIterations + 1}
	if code := post(t, hs.URL+"/v1/rank", hugeBatch, nil); code != http.StatusBadRequest {
		t.Errorf("batch max_iterations %d: status %d, want 400", maxRequestIterations+1, code)
	}
	if st := s.Stats(); st.Computations != 0 || st.Misses != 0 {
		t.Fatalf("rejected requests reached the compute tier: %+v", st)
	}

	var res rankResult
	atCap := rankRequest{Nodes: nodes, MaxIterations: maxRequestIterations}
	if code := post(t, hs.URL+"/v1/rank", atCap, &res); code != http.StatusOK {
		t.Fatalf("max_iterations %d: status %d, want 200", maxRequestIterations, code)
	}
	if !res.Converged || len(res.Scores) != len(nodes) {
		t.Errorf("max_iterations at the cap: converged=%v, %d scores for %d nodes", res.Converged, len(res.Scores), len(nodes))
	}
}

// TestNewConfigRebuildsChain: entries keep no chain, so a second
// configuration for a cached subgraph is a miss that builds the chain
// again and runs its own iteration, stored beside the first result in
// the one entry; each configuration then answers from the cache.
func TestNewConfigRebuildsChain(t *testing.T) {
	ds, _ := testWeb(t, 400, 11)
	s, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph)})
	nodes := pagesOf(ds, 2, 12)
	for _, tol := range []float64{0, 1e-8, 0, 1e-8} {
		if code := post(t, hs.URL+"/v1/rank", rankRequest{Nodes: nodes, Tolerance: tol}, nil); code != http.StatusOK {
			t.Fatalf("rank (tolerance %g): status %d", tol, code)
		}
	}
	st := s.Stats()
	if st.Misses != 2 || st.Computations != 2 || st.ResultHits != 2 {
		t.Errorf("stats = %+v, want 2 misses over 2 computations and 2 result hits", st)
	}
	if st.CacheEntries != 1 {
		t.Errorf("cache_entries = %d, want 1 (one subgraph, two configs)", st.CacheEntries)
	}
}

// TestStatsEndpointShape: the JSON field names are the dashboard
// contract; keep them stable.
func TestStatsEndpointShape(t *testing.T) {
	ds, _ := testWeb(t, 400, 12)
	_, hs := newTestServer(t, Options{Context: core.NewContext(ds.Graph)})
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, field := range []string{
		"rank_requests", "search_requests", "batch_requests",
		"result_hits", "misses",
		"computations", "coalesced_waits",
		"in_flight", "admission_rejected", "deadline_failures",
		"tail_hits", "stored_tail_bytes", "raw_hits", "stored_raw_bytes",
		"cache_entries", "evictions", "disk_entries_loaded", "disk_entries_rejected", "engines_built",
		"batch_chains_run", "batch_chains_failed",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("stats JSON missing %q (got %v)", field, raw)
		}
	}
}

// TestCanonicalIDs: unit coverage for the identity normalization every
// cache layer depends on.
func TestCanonicalIDs(t *testing.T) {
	ids, err := canonicalIDs([]uint32{5, 1, 5, 3, 1}, 10)
	if err != nil {
		t.Fatalf("canonicalIDs: %v", err)
	}
	want := []graph.NodeID{1, 3, 5}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if _, err := canonicalIDs(nil, 10); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := canonicalIDs([]uint32{10}, 10); err == nil {
		t.Error("out-of-range node accepted")
	}
	if hashIDs(want) == hashIDs(want[:2]) {
		t.Error("prefix hash collision")
	}
	if !idsEqual(want, want) || idsEqual(want, want[:2]) {
		t.Error("idsEqual broken")
	}
	for _, nodes := range canonicalBoundaryCases() {
		checkCanonicalIDs(t, nodes)
	}
}

// canonicalBoundaryCases are id lists that cross radixSort's 2^11 and
// 2^22 digit boundaries, reach 2^32-2, need one, two or three passes,
// or skip the sort: sorted, reverse-sorted and all-equal input.
func canonicalBoundaryCases() [][]uint32 {
	reversed := make([]uint32, 5000)
	for i := range reversed {
		reversed[i] = uint32(len(reversed)-i) * 859
	}
	return [][]uint32{
		{3, 1, 2, 1},
		{2047, 2048, 2046, 2049, 2048, 0},
		{4194303, 4194304, 2048, 4194305, 0, 2047, 4194304},
		{4294967294, 0, 4294967294, 1 << 22, 1 << 11, 1, (1 << 22) - 1},
		{1, 1, 2, 3, 3, 3, 10, 4294967294},
		reversed,
		{7, 7, 7, 7},
		{0, 0, 0},
		{4294967294},
		{0},
	}
}

// checkCanonicalIDs checks canonicalIDs over a graph of 2^32-1 nodes
// against slices.Sort + slices.Compact, and that it leaves its input
// alone.
func checkCanonicalIDs(t *testing.T, nodes []uint32) {
	t.Helper()
	in := slices.Clone(nodes)
	got, err := canonicalIDs(nodes, math.MaxUint32)
	if !slices.Equal(nodes, in) {
		t.Fatalf("canonicalIDs modified its input %v", in)
	}
	var rangeErr *nodeRangeError
	switch {
	case len(nodes) == 0:
		if !errors.Is(err, errNoNodes) {
			t.Fatalf("empty list: err %v, want errNoNodes", err)
		}
	case slices.Contains(nodes, math.MaxUint32):
		if !errors.As(err, &rangeErr) || rangeErr.id != math.MaxUint32 {
			t.Fatalf("%v: err %v, want node %d out of range", nodes, err, uint32(math.MaxUint32))
		}
	default:
		want := slices.Clone(nodes)
		slices.Sort(want)
		want = slices.Compact(want)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("canonicalIDs(%v) = %v, %v; want %v", nodes, got, err, want)
		}
	}
}

// FuzzCanonicalIDs: canonicalIDs agrees with slices.Sort + slices.Compact
// on any list of ids, read four little-endian bytes at a time.
func FuzzCanonicalIDs(f *testing.F) {
	for _, nodes := range canonicalBoundaryCases() {
		data := make([]byte, 0, 4*len(nodes))
		for _, v := range nodes {
			data = binary.LittleEndian.AppendUint32(data, v)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes := make([]uint32, len(data)/4)
		for i := range nodes {
			nodes[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		checkCanonicalIDs(t, nodes)
	})
}

// BenchmarkCanonicalIDs canonicalizes a crawl-order id list (radix sort)
// and the same list sorted (the O(n) check alone).
func BenchmarkCanonicalIDs(b *testing.B) {
	_, crawl := benchCrawl(b)
	sorted := slices.Clone(crawl)
	slices.Sort(sorted)
	for _, bc := range []struct {
		name  string
		nodes []uint32
	}{{"crawl-order", crawl}, {"sorted", sorted}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := canonicalIDs(bc.nodes, 20000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLRUInternals: bucket bookkeeping survives eviction churn and a
// forced hash collision never serves the wrong entry.
func TestLRUInternals(t *testing.T) {
	c := newLRU(2)
	e1 := &entry{hash: 7, ids: []graph.NodeID{1}}
	e2 := &entry{hash: 7, ids: []graph.NodeID{2}} // forced collision
	e3 := &entry{hash: 9, ids: []graph.NodeID{3}}
	if ev := c.add(e1); ev != 0 {
		t.Fatalf("evicted %d adding e1", ev)
	}
	if ev := c.add(e2); ev != 0 {
		t.Fatalf("evicted %d adding e2", ev)
	}
	if got, ok := c.get(7, []graph.NodeID{1}); !ok || got != e1 {
		t.Fatalf("collision lookup returned %v", got)
	}
	if got, ok := c.get(7, []graph.NodeID{2}); !ok || got != e2 {
		t.Fatalf("collision lookup returned %v", got)
	}
	if _, ok := c.get(7, []graph.NodeID{99}); ok {
		t.Fatal("phantom entry")
	}
	// e1 was just touched via get? No: last get promoted e2. Touch e1 so
	// e2 is the LRU victim.
	c.get(7, []graph.NodeID{1})
	if ev := c.add(e3); ev != 1 {
		t.Fatalf("evicted %d adding e3, want 1", ev)
	}
	if _, ok := c.get(7, []graph.NodeID{2}); ok {
		t.Fatal("victim e2 still present")
	}
	if _, ok := c.get(7, []graph.NodeID{1}); !ok {
		t.Fatal("e1 wrongly evicted")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestGraphSignature: identical generation → identical signature;
// different graphs → different signatures.
func TestGraphSignature(t *testing.T) {
	ds1, _ := testWeb(t, 300, 20)
	ds1b, _ := testWeb(t, 300, 20)
	ds2, _ := testWeb(t, 300, 21)
	if GraphSignature(ds1.Graph) != GraphSignature(ds1b.Graph) {
		t.Error("deterministic generation produced differing signatures")
	}
	if GraphSignature(ds1.Graph) == GraphSignature(ds2.Graph) {
		t.Error("different graphs share a signature")
	}
}

// TestServerValidation: constructor-level option errors.
func TestServerValidation(t *testing.T) {
	ds, terms := testWeb(t, 300, 22)
	if _, err := NewServer(Options{}); err == nil {
		t.Error("nil context accepted")
	}
	if _, err := NewServer(Options{Context: core.NewContext(ds.Graph), Terms: terms[:10]}); err == nil {
		t.Error("short term corpus accepted")
	}
	if _, err := NewServer(Options{Context: core.NewContext(ds.Graph), CacheEntries: -1}); err == nil {
		t.Error("negative cache capacity accepted")
	}
	if _, err := NewServer(Options{Context: core.NewContext(ds.Graph), MaxInFlight: -2}); err == nil {
		t.Error("negative in-flight accepted")
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
