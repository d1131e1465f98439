package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math/rand"
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
// has the status, headers and body writeJSON gives rankResultOf(ids,
// res, true): the first, which encodes and stores the tail; the same
// body repeated, which the raw tier answers; a permuted body, which
// takes the full path and is registered in the first body's place; and
// a whitespace-padded body longer than its tail, which is answered but
// not registered. Only hits after the first count as tail hits, and
// eviction drops the tail and the registered body with their entry.
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
	perm := slices.Clone(nodes)
	rand.New(rand.NewSource(40)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	permuted := nodesBody(perm)
	if permuted == body {
		t.Fatal("the shuffle left the body as it was")
	}
	padded := "\n" + body + strings.Repeat(" ", len(tail))
	for i, hit := range []struct {
		body                          string
		resultHits, tailHits, rawHits int64
		storedRaw                     int
	}{
		{body, 1, 0, 0, len(body)}, // the first hit: stores the tail, registers the body
		{body, 2, 1, 1, len(body)},
		{body, 3, 2, 2, len(body)},
		{permuted, 4, 3, 2, len(permuted)}, // full path; registered in body's place
		{permuted, 5, 4, 3, len(permuted)},
		{body, 6, 5, 3, len(body)},
		{padded, 7, 6, 3, len(body)}, // longer than its tail: never registered
		{padded, 8, 7, 3, len(body)},
	} {
		got := serveRank(s, hit.body)
		if got.Code != http.StatusOK || got.Body.String() != want.Body.String() {
			t.Fatalf("hit %d: %d %q, want 200 %q", i, got.Code, got.Body, want.Body)
		}
		if !maps.EqualFunc(got.Result().Header, want.Result().Header, slices.Equal) {
			t.Fatalf("hit %d: header %v, want %v", i, got.Result().Header, want.Result().Header)
		}
		st := s.Stats()
		if st.ResultHits != hit.resultHits || st.TailHits != hit.tailHits || st.RawHits != hit.rawHits ||
			st.StoredTailBytes != int64(len(tail)) || st.StoredRawBytes != int64(hit.storedRaw) {
			t.Fatalf("hit %d: stats %+v, want %d result, %d tail and %d raw hits, %d stored tail and %d stored raw bytes",
				i, st, hit.resultHits, hit.tailHits, hit.rawHits, len(tail), hit.storedRaw)
		}
	}

	// A search served by the same cached result is no tail hit.
	search, err := json.Marshal(searchRequest{Nodes: nodes, Terms: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(search)))
	if st := s.Stats(); rec.Code != http.StatusOK || st.ResultHits != 9 || st.TailHits != 7 || st.RawHits != 3 {
		t.Fatalf("search: %d %s, stats %+v; want a result hit and no tail hit", rec.Code, rec.Body, st)
	}

	if code, body := postRaw(s, nodesBody(pagesOf(ds, 3, 20))); code != http.StatusOK {
		t.Fatalf("evicting rank: %d %s", code, body)
	}
	if st := s.Stats(); st.Evictions != 1 || st.StoredTailBytes != 0 || st.StoredRawBytes != 0 || len(s.cache.byRaw) != 0 {
		t.Fatalf("after eviction: stats %+v, %d raw slots; want 1 eviction and nothing stored", st, len(s.cache.byRaw))
	}
	if got := serveRank(s, body); got.Code != http.StatusOK || strings.Contains(got.Body.String(), `"cached":true`) {
		t.Fatalf("evicted body: %d %s, want a computed answer", got.Code, got.Body)
	}
}

// TestRankHitTailCoherence: storing a result over a cached one keeps
// the cached result with its tail and registered body, so the body stays
// a raw hit of it; and a first hit whose result was evicted and
// recomputed into a new entry after it read it stores no tail and
// registers no body there.
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
	st0 := s.Stats()
	if st0.StoredTailBytes == 0 || st0.StoredRawBytes != int64(len(body)) {
		t.Fatalf("first hit stored no tail or registered no body: %+v", st0)
	}

	// A result whose hit body differs from the original's.
	repl := &core.Result{
		Result: pagerank.Result{Scores: make([]float64, len(old.Scores)), Iterations: old.Iterations + 1, Converged: true},
		Lambda: old.Lambda / 2,
	}
	for i, x := range old.Scores {
		repl.Scores[i] = x / 2
	}
	s.mu.Lock()
	s.storeResult(ids, hashIDs(ids), key, repl)
	s.mu.Unlock()
	if st := s.Stats(); cachedResult(s, ids, key) != old ||
		st.StoredTailBytes != st0.StoredTailBytes || st.StoredRawBytes != st0.StoredRawBytes {
		t.Fatalf("a store over the cached result replaced it or dropped its tail or body: %+v", st)
	}
	if _, got := postRaw(s, body); got != writeJSONBody(rankResultOf(ids, old, true)) || s.Stats().RawHits != 1 {
		t.Fatalf("registered body after a store over its result: %q, stats %+v; want a raw hit of the kept result", got, s.Stats())
	}

	// The entry is evicted and repl computed into a new one for the same
	// ids; a hit that read old before the eviction keeps nothing there.
	s.mu.Lock()
	s.cache.removeElement(s.cache.lookup(hashIDs(ids), ids))
	s.storeResult(ids, hashIDs(ids), key, repl)
	s.mu.Unlock()
	staleTail, err := hitTail(old)
	if err != nil {
		t.Fatal(err)
	}
	s.keepHit(ids, key, old, staleTail, hashRaw([]byte(body)), []byte(body))
	if st := s.Stats(); st.StoredTailBytes != 0 || st.StoredRawBytes != 0 {
		t.Fatalf("tail of an evicted result stored: %+v", st)
	}
	for i, wantRaw := range []int64{1, 2} { // the full path registers the body on repl's tail
		if _, got := postRaw(s, body); got != writeJSONBody(rankResultOf(ids, repl, true)) {
			t.Fatalf("hit %d after the recompute: %q", i, got)
		}
		if st := s.Stats(); st.RawHits != wantRaw {
			t.Fatalf("hit %d after the recompute: stats %+v, want %d raw hits", i, st, wantRaw)
		}
	}
}

// TestRankHitConcurrent: hits racing each other to store the tail and to
// register their bodies, raw hits answered from those registrations,
// batches over the same subgraph (result hits that leave tail and
// registration in place) and evictions that make the next request
// recompute the entry leave every answer exactly what writeJSON writes
// for the subgraph's result, cached or not.
func TestRankHitConcurrent(t *testing.T) {
	ds, _ := testWeb(t, 400, 42)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph), CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := pagesOf(ds, 0, 60)
	ids, err := canonicalIDs(nodes, ds.Graph.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	key := defaultKey(t, s)
	rev := slices.Clone(nodes)
	slices.Reverse(rev)
	// Half the hitters repeat one body and half another, so raw hits
	// race registrations replacing each other as well as the batches.
	hitBodies := []string{nodesBody(nodes), nodesBody(rev)}
	batch, err := json.Marshal(rankRequest{Subgraphs: [][]uint32{nodes}})
	if err != nil {
		t.Fatal(err)
	}
	other := nodesBody(pagesOf(ds, 1, 20))
	if code, got := postRaw(s, hitBodies[0]); code != http.StatusOK {
		t.Fatalf("miss: %d %s", code, got)
	}
	// Recomputing the subgraph after an eviction gives a new result with
	// the same bits, so every answer is one of these bodies.
	res := cachedResult(s, ids, key)
	valid := map[string]bool{}
	for _, cached := range []bool{false, true} {
		valid[writeJSONBody(rankResultOf(ids, res, cached))] = true
		valid[writeJSONBody(struct {
			Results []batchItem `json:"results"`
		}{[]batchItem{{Result: rankResultOf(ids, res, cached)}}})] = true
	}
	const hitters, hitsEach, batches, evictions = 4, 40, 8, 8
	var wg sync.WaitGroup
	send := func(what string, n int, body func(i int) string, check bool) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			code, got := postRaw(s, body(i))
			if code != http.StatusOK || check && !valid[got] {
				t.Errorf("%s %d: %d %q matches no answer for the subgraph", what, i, code, got)
				return
			}
		}
	}
	wg.Add(hitters + 2)
	for g := 0; g < hitters; g++ {
		go send("hit", hitsEach, func(int) string { return hitBodies[g%2] }, true)
	}
	go send("batch", batches, func(int) string { return string(batch) }, true)
	go send("eviction", evictions, func(int) string { return other }, false)
	wg.Wait()

	// Once the race is over, a body's second repeat is a raw hit of the
	// result the entry holds.
	want := writeJSONBody(rankResultOf(ids, res, true))
	for i := 0; i < 3; i++ {
		before := s.Stats().RawHits
		if code, got := postRaw(s, hitBodies[0]); code != http.StatusOK || !valid[got] || i > 0 && got != want {
			t.Fatalf("hit %d after the race: %d %q, want 200 %q", i, code, got, want)
		}
		if raw := s.Stats().RawHits - before; i == 2 && raw != 1 {
			t.Fatalf("repeat after the race: %d raw hits, want 1", raw)
		}
	}
	tail, err := hitTail(res)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.StoredTailBytes != int64(len(tail)) || st.StoredRawBytes != int64(len(hitBodies[0])) {
		t.Fatalf("stats %+v: want the result's %d-byte tail and a %d-byte body stored",
			st, len(tail), len(hitBodies[0]))
	}
}

// FuzzRankHit: for any id list over a small web, every result hit
// answers exactly what writeJSON answers for the result cached at that
// moment: the first hit (which stores the tail), the same body repeated,
// the list reversed, a whitespace-padded body longer than its tail, and
// the last registered body after a batch over the same subgraph (itself
// a result hit that keeps tail and registration) and once more. A model
// of the raw tier runs beside it: a full-path hit registers its body
// when it is no longer than the tail (a list of many repeated ids is
// not), and a hit is raw exactly when its body is the one registered.
func FuzzRankHit(f *testing.F) {
	ds, err := gen.Generate(gen.Config{Pages: 300, Domains: 4, Topics: 4, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	gctx := core.NewContext(ds.Graph)
	for _, seed := range [][]byte{{1, 2, 3}, {9, 4}, {20, 20, 21}, {7}, {255, 0, 128, 3, 3}, bytes.Repeat([]byte{5}, 40)} {
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
		var tailHits, rawHits int64
		registered := ""
		tailOf := func() []byte {
			tail, err := hitTail(cachedResult(s, ids, key))
			if err != nil {
				t.Fatal(err)
			}
			return tail
		}
		hit := func(what, body string, first bool) {
			t.Helper()
			got := serveRank(s, body)
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, rankResultOf(ids, cachedResult(s, ids, key), true))
			if got.Code != http.StatusOK || got.Body.String() != want.Body.String() ||
				!maps.EqualFunc(got.Result().Header, want.Result().Header, slices.Equal) {
				t.Fatalf("%s: %d %v %q, want 200 %v %q", what, got.Code, got.Result().Header, got.Body, want.Result().Header, want.Body)
			}
			tail := tailOf()
			if !first {
				tailHits++
			}
			if body == registered {
				rawHits++
			} else if len(body) <= len(tail) {
				registered = body
			}
			if st := s.Stats(); st.TailHits != tailHits || st.RawHits != rawHits ||
				st.StoredTailBytes != int64(len(tail)) || st.StoredRawBytes != int64(len(registered)) {
				t.Fatalf("%s: stats %+v, want %d tail hits, %d raw hits, a %d-byte tail and %d registered bytes",
					what, st, tailHits, rawHits, len(tail), len(registered))
			}
		}
		hit("first hit", body, true)
		hit("repeated body", body, false)
		rev := slices.Clone(nodes)
		slices.Reverse(rev)
		hit("reversed body", nodesBody(rev), false)
		hit("padded body", body+strings.Repeat(" ", len(tailOf())), false)
		batch, err := json.Marshal(rankRequest{Subgraphs: [][]uint32{nodes}})
		if err != nil {
			t.Fatal(err)
		}
		wantBatch := writeJSONBody(struct {
			Results []batchItem `json:"results"`
		}{[]batchItem{{Result: rankResultOf(ids, cachedResult(s, ids, key), true)}}})
		if code, got := postRaw(s, string(batch)); code != http.StatusOK || got != wantBatch {
			t.Fatalf("batch: %d %q, want 200 %q", code, got, wantBatch)
		}
		if st := s.Stats(); st.BatchChainsRun != 1 || st.Computations != 1 ||
			st.StoredTailBytes != int64(len(tailOf())) || st.StoredRawBytes != int64(len(registered)) {
			t.Fatalf("after batch: stats %+v, want 1 batch item, 1 computation and tail and body kept", st)
		}
		last := registered
		if last == "" {
			last = body
		}
		hit("registered body after batch", last, false)
		hit("registered body, repeated", last, false)
	})
}

// discardWriter is an http.ResponseWriter that keeps nothing but its
// header map.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// BenchmarkRankHit sends a 2,000-id result hit through Server.Handler(),
// answered from the entry's stored tail. /full sends the ids in a new
// order each iteration — a body other than the one the entry registered
// last, so every request is decoded, canonicalized and looked up by id
// before its ids are formatted and written. /raw repeats one body, which
// the raw tier matches on its bytes.
func BenchmarkRankHit(b *testing.B) {
	ds, crawl := benchCrawl(b)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		b.Fatal(err)
	}
	nodes := crawl[:2000]
	for i := 0; i < 2; i++ { // the miss, then the hit that stores the tail
		if code, got := postRaw(s, nodesBody(nodes)); code != http.StatusOK {
			b.Fatalf("rank %d: %d %s", i, code, got)
		}
	}
	// Sixteen orders of the ids; consecutive requests never repeat one.
	perms := make([][]byte, 16)
	rng := rand.New(rand.NewSource(16))
	for i := range perms {
		perm := slices.Clone(nodes)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		perms[i] = []byte(nodesBody(perm))
	}
	run := func(b *testing.B, body func(i int) []byte, wantRaw bool) {
		h := s.Handler()
		w := &discardWriter{h: http.Header{}}
		rd := bytes.NewReader(nil)
		req := httptest.NewRequest(http.MethodPost, "/v1/rank", rd)
		st0 := s.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(body(i))
			req.Body = io.NopCloser(rd)
			h.ServeHTTP(w, req)
		}
		b.StopTimer()
		st := s.Stats()
		tail, raw := st.TailHits-st0.TailHits, st.RawHits-st0.RawHits
		if tail != int64(b.N) || (raw == tail) != wantRaw || (raw == 0) == wantRaw {
			b.Fatalf("%d tail hits, %d of them raw, in %d requests", tail, raw, b.N)
		}
	}
	sent := 0 // counts across /full's runs, so no run starts on the body the last one ended on
	b.Run("full", func(b *testing.B) {
		run(b, func(int) []byte { sent++; return perms[sent%len(perms)] }, false)
	})
	b.Run("raw", func(b *testing.B) {
		body := perms[0]
		postRaw(s, string(body)) // registers it
		run(b, func(int) []byte { return body }, true)
	})
}
