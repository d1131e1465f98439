package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pagerank"
)

// serveRank sends body to /v1/rank through the handler and returns the
// whole recorded response.
func serveRank(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", strings.NewReader(body)))
	return rec
}

// writeJSONBody is the body writeJSON writes for a 200 carrying v.
func writeJSONBody(v any) string {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.String()
}

// defaultKey is the configuration key of a request that sets no knobs.
func defaultKey(t testing.TB, s *Server) string {
	t.Helper()
	cfg, err := s.requestConfig(0, 0, 0, 0)
	if err != nil {
		t.Fatalf("requestConfig: %v", err)
	}
	return cfgKey(cfg)
}

// cachedResult is the result the cache holds for ids under key, or nil.
func cachedResult(s *Server, ids []graph.NodeID, key string) *core.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.cache.get(hashIDs(ids), ids); ok {
		return e.results[key]
	}
	return nil
}

// TestRankHitBytes: a miss keeps writeJSON's body, and every result hit
// — the first, which encodes and stores the tail, and the later ones
// written from it — has the status, headers and body writeJSON gives
// rankResultOf(ids, res, true). Only later hits count as tail hits, and
// eviction drops the tail with its entry.
func TestRankHitBytes(t *testing.T) {
	ds, terms := testWeb(t, 400, 40)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph), Terms: terms, CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := pagesOf(ds, 2, 50)
	slices.Reverse(nodes)
	nodes = append(nodes, nodes[3])
	ids, err := canonicalIDs(nodes, ds.Graph.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	key := defaultKey(t, s)
	body := nodesBody(nodes)

	miss := serveRank(s, body)
	res := cachedResult(s, ids, key)
	if res == nil {
		t.Fatalf("miss cached nothing: %d %s", miss.Code, miss.Body)
	}
	if got, want := miss.Body.String(), writeJSONBody(rankResultOf(ids, res, false)); miss.Code != http.StatusOK || got != want {
		t.Fatalf("miss: %d %q, want 200 %q", miss.Code, got, want)
	}
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, rankResultOf(ids, res, true))
	tail, err := hitTail(res)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantTailHits := range []int64{0, 1, 2} {
		got := serveRank(s, body)
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("hit %d: %d %q, want 200 %q", i, got.Code, got.Body, want.Body)
		}
		if !slices.Equal(got.Result().Header["Content-Type"], want.Result().Header["Content-Type"]) {
			t.Fatalf("hit %d: header %v, want %v", i, got.Result().Header, want.Result().Header)
		}
		st := s.Stats()
		if st.ResultHits != int64(i+1) || st.TailHits != wantTailHits || st.StoredTailBytes != int64(len(tail)) {
			t.Fatalf("hit %d: stats %+v, want %d tail hits and %d stored tail bytes", i, st, wantTailHits, len(tail))
		}
	}

	// A search served by the same cached result is no tail hit.
	search, err := json.Marshal(searchRequest{Nodes: nodes, Terms: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(search)))
	if st := s.Stats(); rec.Code != http.StatusOK || st.ResultHits != 4 || st.TailHits != 2 {
		t.Fatalf("search: %d %s, stats %+v; want a result hit and no tail hit", rec.Code, rec.Body, st)
	}

	if code, body := postRaw(s, nodesBody(pagesOf(ds, 3, 20))); code != http.StatusOK {
		t.Fatalf("evicting rank: %d %s", code, body)
	}
	if st := s.Stats(); st.Evictions != 1 || st.StoredTailBytes != 0 {
		t.Fatalf("after eviction: stats %+v, want 1 eviction and no stored tail", st)
	}
}

// TestRankHitTailCoherence: replacing a result drops its tail, so the
// next hit answers the new result; and a first hit whose result was
// replaced after it read it stores no tail.
func TestRankHitTailCoherence(t *testing.T) {
	ds, _ := testWeb(t, 400, 41)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	nodes := pagesOf(ds, 1, 30)
	ids, err := canonicalIDs(nodes, ds.Graph.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	key := defaultKey(t, s)
	body := nodesBody(nodes)
	for i := 0; i < 2; i++ { // the miss, then the hit that stores the tail
		if code, got := postRaw(s, body); code != http.StatusOK {
			t.Fatalf("rank %d: %d %s", i, code, got)
		}
	}
	old := cachedResult(s, ids, key)
	if st := s.Stats(); st.StoredTailBytes == 0 {
		t.Fatalf("first hit stored no tail: %+v", st)
	}

	// A replacement whose hit body differs from the original's.
	repl := &core.Result{
		Result: pagerank.Result{Scores: make([]float64, len(old.Scores)), Iterations: old.Iterations + 1, Converged: true},
		Lambda: old.Lambda / 2,
	}
	for i, x := range old.Scores {
		repl.Scores[i] = x / 2
	}
	s.storeResult(ids, hashIDs(ids), key, nil, repl)
	if st := s.Stats(); st.StoredTailBytes != 0 {
		t.Fatalf("replaced result kept its tail: %+v", st)
	}
	if _, got := postRaw(s, body); got != writeJSONBody(rankResultOf(ids, repl, true)) {
		t.Fatalf("hit after replacement: %q", got)
	}

	s.storeResult(ids, hashIDs(ids), key, nil, old)
	staleTail, err := hitTail(repl)
	if err != nil {
		t.Fatal(err)
	}
	s.storeTail(ids, key, repl, staleTail)
	if st := s.Stats(); st.StoredTailBytes != 0 {
		t.Fatalf("tail of a replaced result stored: %+v", st)
	}
	if _, got := postRaw(s, body); got != writeJSONBody(rankResultOf(ids, old, true)) {
		t.Fatalf("hit after a stale store: %q", got)
	}
}

// TestRankHitConcurrent: hits racing each other to store the tail, and a
// batch that keeps replacing the result, leave every hit answering
// exactly what writeJSON answers for one of the results the entry held.
func TestRankHitConcurrent(t *testing.T) {
	ds, _ := testWeb(t, 400, 42)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	nodes := pagesOf(ds, 0, 60)
	ids, err := canonicalIDs(nodes, ds.Graph.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	key := defaultKey(t, s)
	body := nodesBody(nodes)
	batch, err := json.Marshal(rankRequest{Subgraphs: [][]uint32{nodes}})
	if err != nil {
		t.Fatal(err)
	}
	if code, got := postRaw(s, body); code != http.StatusOK {
		t.Fatalf("miss: %d %s", code, got)
	}
	// Each batch's result is read before the next batch runs, so held
	// lists every result a hit can have seen.
	held := []*core.Result{cachedResult(s, ids, key)}
	const hitters, hitsEach, batches = 4, 40, 8
	bodies := make([][]string, hitters)
	var wg sync.WaitGroup
	for g := 0; g < hitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < hitsEach; i++ {
				code, got := postRaw(s, body)
				if code != http.StatusOK {
					t.Errorf("hit: %d %s", code, got)
					return
				}
				bodies[g] = append(bodies[g], got)
			}
		}(g)
	}
	for i := 0; i < batches; i++ {
		if code, got := postRaw(s, string(batch)); code != http.StatusOK {
			t.Fatalf("batch: %d %s", code, got)
		}
		held = append(held, cachedResult(s, ids, key))
	}
	wg.Wait()

	valid := map[string]bool{}
	for _, res := range held {
		valid[writeJSONBody(rankResultOf(ids, res, true))] = true
	}
	for g := range bodies {
		for i, got := range bodies[g] {
			if !valid[got] {
				t.Fatalf("hitter %d, hit %d: %q matches no result the entry held", g, i, got)
			}
		}
	}
	tail, err := hitTail(cachedResult(s, ids, key))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.StoredTailBytes != 0 && st.StoredTailBytes != int64(len(tail)) {
		t.Fatalf("stats %+v: stored tail bytes match neither no tail nor the current result's %d", st, len(tail))
	}
}

// FuzzRankHit: for any id list over a small web, the first result hit
// (which stores the tail), the second (written from it) and a hit after
// a batch has replaced the result each answer exactly what writeJSON
// answers for the result cached at that moment.
func FuzzRankHit(f *testing.F) {
	ds, err := gen.Generate(gen.Config{Pages: 300, Domains: 4, Topics: 4, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	gctx := core.NewContext(ds.Graph)
	for _, seed := range [][]byte{{1, 2, 3}, {9, 4}, {20, 20, 21}, {7}, {255, 0, 128, 3, 3}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		// Byte ids stay below the web's 300 pages, so no list is the
		// whole graph.
		nodes := make([]uint32, len(raw))
		for i, b := range raw {
			nodes[i] = uint32(b)
		}
		ids, err := canonicalIDs(nodes, ds.Graph.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(Options{Context: gctx})
		if err != nil {
			t.Fatal(err)
		}
		key := defaultKey(t, s)
		body := nodesBody(nodes)
		if code, got := postRaw(s, body); code != http.StatusOK {
			t.Fatalf("miss: %d %s", code, got)
		}
		hit := func(what string, wantTailHits int64) {
			t.Helper()
			code, got := postRaw(s, body)
			if want := writeJSONBody(rankResultOf(ids, cachedResult(s, ids, key), true)); code != http.StatusOK || got != want {
				t.Fatalf("%s: %d %q, want 200 %q", what, code, got, want)
			}
			if st := s.Stats(); st.TailHits != wantTailHits || st.StoredTailBytes == 0 {
				t.Fatalf("%s: stats %+v, want %d tail hits and a stored tail", what, st, wantTailHits)
			}
		}
		hit("first hit", 0)
		hit("second hit", 1)
		batch, err := json.Marshal(rankRequest{Subgraphs: [][]uint32{nodes}})
		if err != nil {
			t.Fatal(err)
		}
		if code, got := postRaw(s, string(batch)); code != http.StatusOK {
			t.Fatalf("batch: %d %s", code, got)
		}
		if st := s.Stats(); st.BatchChainsRun != 1 || st.StoredTailBytes != 0 {
			t.Fatalf("after batch: stats %+v, want 1 batch chain and no stored tail", st)
		}
		hit("hit after batch", 1)
	})
}

// discardWriter is an http.ResponseWriter that keeps nothing but its
// header map.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkRankHit sends a 2,000-id result hit through Server.Handler(),
// answered from the entry's stored tail: decode, canonicalize, look up,
// format the ids and write.
func BenchmarkRankHit(b *testing.B) {
	ds, crawl := benchCrawl(b)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(nodesBody(crawl[:2000]))
	for i := 0; i < 2; i++ { // the miss, then the hit that stores the tail
		if code, got := postRaw(s, string(body)); code != http.StatusOK {
			b.Fatalf("rank %d: %d %s", i, code, got)
		}
	}
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/rank", rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if st := s.Stats(); st.TailHits != int64(b.N) {
		b.Fatalf("%d tail hits in %d requests", st.TailHits, b.N)
	}
}
