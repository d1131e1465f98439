package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// batchResponse is the body of a batch /v1/rank answer.
type batchResponse struct {
	Results []batchItem `json:"results"`
}

// serveBatch sends a batch of items through the handler and returns the
// recorded response and its decoded body (empty unless it is a 200).
func serveBatch(t *testing.T, s *Server, req rankRequest) (*httptest.ResponseRecorder, batchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := serveRank(s, string(body))
	return rec, decodeBatch(t, rec)
}

// decodeBatch decodes a recorded batch answer (empty unless it is a 200).
func decodeBatch(t *testing.T, rec *httptest.ResponseRecorder) batchResponse {
	t.Helper()
	var out batchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("decode batch answer %q: %v", rec.Body, err)
		}
	}
	return out
}

// blockingHook returns a compute hook that blocks every computation until
// release is closed, and a channel closed once the first one is inside.
func blockingHook() (hook func(), started, release chan struct{}) {
	started, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func() {
		once.Do(func() { close(started) })
		<-release
	}, started, release
}

// settle waits until the goroutine count falls back to before.
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

// TestBatchCachedItem: a batch item whose subgraph a single query cached
// answers "cached":true with the single query's scores and starts no
// computation; the other item computes.
func TestBatchCachedItem(t *testing.T) {
	ds, _ := testWeb(t, 400, 50)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	a, b := pagesOf(ds, 0, 15), pagesOf(ds, 1, 15)
	var single rankResult
	code, body := postRaw(s, nodesBody(a))
	if err := json.Unmarshal([]byte(body), &single); code != http.StatusOK || err != nil {
		t.Fatalf("single: %d %s", code, body)
	}
	rec, out := serveBatch(t, s, rankRequest{Subgraphs: [][]uint32{a, b}})
	if rec.Code != http.StatusOK || len(out.Results) != 2 || out.Results[0].Result == nil || out.Results[1].Result == nil {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	if got := out.Results[0].Result; !got.Cached || !sameBits(got.Scores, single.Scores) {
		t.Errorf("cached item: cached=%v, scores equal %v; want the single query's cached scores", got.Cached, sameBits(got.Scores, single.Scores))
	}
	if out.Results[1].Result.Cached {
		t.Error("uncached item answered cached")
	}
	if st := s.Stats(); st.Computations != 2 || st.Misses != 2 || st.ResultHits != 1 || st.BatchChainsRun != 2 {
		t.Errorf("stats = %+v, want 2 computations and misses, 1 result hit, 2 batch items run", st)
	}
}

// TestBatchJoinsFlight: a batch item for a subgraph a single query is
// still computing waits on that computation instead of starting its own,
// and both answer its scores.
func TestBatchJoinsFlight(t *testing.T) {
	ds, _ := testWeb(t, 400, 51)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph), MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	hook, started, release := blockingHook()
	s.computeHook = hook
	a, b := pagesOf(ds, 2, 15), pagesOf(ds, 3, 15)
	var single rankResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		code, body := postRaw(s, nodesBody(a))
		if err := json.Unmarshal([]byte(body), &single); code != http.StatusOK || err != nil {
			t.Errorf("single: %d %s", code, body)
		}
	}()
	<-started
	batch, err := json.Marshal(rankRequest{Subgraphs: [][]uint32{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	var rec *httptest.ResponseRecorder
	batchDone := make(chan struct{})
	go func() {
		defer close(batchDone)
		rec = serveRank(s, string(batch))
	}()
	waitFor(t, "the batch item to join the flight", func() bool { return s.Stats().CoalescedWaits == 1 })
	close(release)
	<-done
	<-batchDone
	out := decodeBatch(t, rec)
	if rec.Code != http.StatusOK || len(out.Results) != 2 || out.Results[0].Result == nil {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	if got := out.Results[0].Result; got.Cached || !sameBits(got.Scores, single.Scores) {
		t.Errorf("coalesced item: cached=%v, scores equal %v; want the flight's scores", got.Cached, sameBits(got.Scores, single.Scores))
	}
	if st := s.Stats(); st.Computations != 2 || st.CoalescedWaits != 1 || st.ResultHits != 0 {
		t.Errorf("stats = %+v, want 2 computations (one per subgraph) and 1 coalesced wait", st)
	}
}

// TestBatchAdmission: each computation of a batch holds an admission
// token: the compute hook runs once per item, and at most MaxInFlight
// items compute at once — as many as the batch's workers, which do reach
// it — with in_flight counting them.
func TestBatchAdmission(t *testing.T) {
	ds, _ := testWeb(t, 600, 52)
	const maxInFlight, items = 2, 6
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph), MaxInFlight: maxInFlight})
	if err != nil {
		t.Fatal(err)
	}
	var calls, cur, peak, peakInFlight atomic.Int64
	raise := func(v *atomic.Int64, n int64) {
		for p := v.Load(); n > p && !v.CompareAndSwap(p, n); p = v.Load() {
		}
	}
	both := make(chan struct{})
	var once sync.Once
	s.computeHook = func() {
		c := cur.Add(1)
		defer cur.Add(-1)
		raise(&peak, c)
		raise(&peakInFlight, s.Stats().InFlight)
		if c == maxInFlight {
			once.Do(func() { close(both) })
		}
		if calls.Add(1) <= maxInFlight { // the first two wait to overlap
			select {
			case <-both:
			case <-time.After(5 * time.Second):
			}
		}
	}
	req := rankRequest{Subgraphs: make([][]uint32, items)}
	for i := range req.Subgraphs {
		req.Subgraphs[i] = pagesOf(ds, i%4, 10+i)
	}
	rec, out := serveBatch(t, s, req)
	if rec.Code != http.StatusOK || len(out.Results) != items {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	for i, it := range out.Results {
		if it.Result == nil {
			t.Errorf("item %d: %s", i, it.Error)
		}
	}
	if calls.Load() != items || peak.Load() != maxInFlight || peakInFlight.Load() > maxInFlight {
		t.Errorf("%d computations, at most %d at once and in_flight at most %d; want %d, %d and <= %d",
			calls.Load(), peak.Load(), peakInFlight.Load(), items, maxInFlight, maxInFlight)
	}
	if st := s.Stats(); st.InFlight != 0 || st.Computations != items || st.Misses != items {
		t.Errorf("stats = %+v, want %d computations and misses and nothing in flight", st, items)
	}
}

// TestBatchRefused: a batch whose computations admission refuses before
// any item has a result answers 429 with Retry-After, counted once, as a
// single query would; with a cached item served, the same refusal is a
// 200 whose unserved item carries the error.
func TestBatchRefused(t *testing.T) {
	ds, _ := testWeb(t, 400, 53)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	s.adm = newAdmission(1, 0)
	cached := pagesOf(ds, 0, 12)
	if code, body := postRaw(s, nodesBody(cached)); code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", code, body)
	}
	hook, started, release := blockingHook()
	s.computeHook = hook
	done := make(chan struct{})
	go func() { // holds the one token until release
		defer close(done)
		if code, body := postRaw(s, nodesBody(pagesOf(ds, 1, 12))); code != http.StatusOK {
			t.Errorf("token holder: %d %s", code, body)
		}
	}()
	<-started

	rec, _ := serveBatch(t, s, rankRequest{Subgraphs: [][]uint32{pagesOf(ds, 2, 12), pagesOf(ds, 3, 12)}})
	if want := `{"error":"serve: admission queue full"}` + "\n"; rec.Code != http.StatusTooManyRequests ||
		rec.Header().Get("Retry-After") == "" || rec.Body.String() != want {
		t.Errorf("refused batch: %d %v %q, want 429 with Retry-After and %q", rec.Code, rec.Header(), rec.Body, want)
	}
	if st := s.Stats(); st.AdmissionRejected != 1 || st.BatchChainsRun != 0 || st.BatchChainsFailed != 0 {
		t.Errorf("stats = %+v, want 1 admission rejection and no batch item counted", st)
	}

	rec, out := serveBatch(t, s, rankRequest{Subgraphs: [][]uint32{cached, pagesOf(ds, 2, 12)}})
	if rec.Code != http.StatusOK || len(out.Results) != 2 || out.Results[0].Result == nil || !out.Results[0].Result.Cached ||
		out.Results[1].Error != "serve: batch item 1: serve: admission queue full" {
		t.Errorf("partly served batch: %d %s", rec.Code, rec.Body)
	}
	close(release)
	<-done
	if st := s.Stats(); st.AdmissionRejected != 1 || st.BatchChainsRun != 1 || st.BatchChainsFailed != 1 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want the one rejection, 1 batch item run and 1 failed", st)
	}
}

// TestBatchMatchesRankMany: a batch's scores, Λ and iteration counts are
// bit for bit core.RankManyCtx's over the same subgraphs, computed or
// cached.
func TestBatchMatchesRankMany(t *testing.T) {
	ds, _ := testWeb(t, 800, 54)
	gctx := core.NewContext(ds.Graph)
	s, err := NewServer(Options{Context: gctx})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.requestConfig(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Deadline = 0
	req := rankRequest{Subgraphs: make([][]uint32, 4)}
	subs := make([]*graph.Subgraph, 4)
	for d := range subs {
		req.Subgraphs[d] = pagesOf(ds, d, 40+20*d)
		ids, err := canonicalIDs(req.Subgraphs[d], ds.Graph.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		if subs[d], err = graph.NewSubgraph(ds.Graph, ids); err != nil {
			t.Fatal(err)
		}
	}
	want, err := core.RankManyCtx(context.Background(), gctx, subs, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for pass, cached := range []bool{false, true} {
		rec, out := serveBatch(t, s, req)
		if rec.Code != http.StatusOK || len(out.Results) != len(subs) {
			t.Fatalf("batch %d: %d %s", pass, rec.Code, rec.Body)
		}
		for i, it := range out.Results {
			got := it.Result
			if got == nil || got.Cached != cached || !sameBits(got.Scores, want[i].Scores) ||
				math.Float64bits(got.Lambda) != math.Float64bits(want[i].Lambda) || got.Iterations != want[i].Iterations {
				t.Errorf("batch %d item %d: %+v differs from RankManyCtx's result", pass, i, it)
			}
		}
	}
}

// sameBits reports whether two score vectors are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBatchGoroutinesSettle: the goroutines a request starts all end —
// after a batch, after a fail-fast batch whose computations outlive it,
// and after coalesced waiters whose budget expired, once the computation
// they waited on ends — so the count returns to what it was before.
func TestBatchGoroutinesSettle(t *testing.T) {
	ds, _ := testWeb(t, 400, 55)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph), MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	items := [][]uint32{pagesOf(ds, 0, 10), pagesOf(ds, 1, 10), pagesOf(ds, 2, 10)}
	if rec, _ := serveBatch(t, s, rankRequest{Subgraphs: items}); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	settle(t, "batch", before)

	// The batch's 20 ms budget ends while its computations sleep in the
	// hook; they run on, fail their own deadline and end after it.
	s.computeHook = func() { time.Sleep(100 * time.Millisecond) }
	failing := rankRequest{Subgraphs: [][]uint32{pagesOf(ds, 3, 10), pagesOf(ds, 3, 11), pagesOf(ds, 3, 12)}, TimeoutMS: 20}
	if rec, _ := serveBatch(t, s, failing); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fail-fast batch: %d %s, want 503", rec.Code, rec.Body)
	}
	settle(t, "fail-fast batch", before)

	hook, started, release := blockingHook()
	s.computeHook = hook
	const waiters = 4
	req, err := json.Marshal(rankRequest{Nodes: pagesOf(ds, 0, 20), TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, got := postRaw(s, string(req)); code != http.StatusServiceUnavailable {
				t.Errorf("waiter: %d %s, want 503", code, got)
			}
		}()
	}
	<-started
	wg.Wait()
	if st := s.Stats(); st.CoalescedWaits != waiters-1 {
		t.Errorf("coalesced_waits = %d, want %d", st.CoalescedWaits, waiters-1)
	}
	close(release)
	settle(t, "expired coalesced waiters", before)
}
