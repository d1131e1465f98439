package serve

import (
	"bytes"
	"container/list"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// rotated is the /v1/rank body for nodes rotated left by k: the same
// subgraph as nodesBody(nodes), in another order.
func rotated(nodes []uint32, k int) string {
	k %= len(nodes)
	return nodesBody(append(slices.Clone(nodes[k:]), nodes[:k]...))
}

// lruOrder lists the cache's entries, most recently used first, by
// their smallest id.
func lruOrder(s *Server) []graph.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var order []graph.NodeID
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		order = append(order, el.Value.(*entry).ids[0])
	}
	return order
}

// TestRawHitParity: a raw hit moves exactly the counters a full-path
// tail hit moves, plus raw_hits; and a sequence of hits and misses
// evicts the same entries, in the same order, whether its hits are raw
// or take the full path.
func TestRawHitParity(t *testing.T) {
	ds, _ := testWeb(t, 400, 43)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	nodes := pagesOf(ds, 1, 40)
	for i := 0; i < 2; i++ { // the miss, then the hit that stores the tail
		if code, got := postRaw(s, nodesBody(nodes)); code != http.StatusOK {
			t.Fatalf("rank %d: %d %s", i, code, got)
		}
	}
	st0 := s.Stats()
	if code, got := postRaw(s, rotated(nodes, 1)); code != http.StatusOK {
		t.Fatalf("full-path hit: %d %s", code, got)
	}
	st1 := s.Stats()
	want := st0
	want.RankRequests++
	want.ResultHits++
	want.TailHits++
	if st1 != want {
		t.Fatalf("full-path tail hit: stats %+v, want %+v", st1, want)
	}
	if code, got := postRaw(s, rotated(nodes, 1)); code != http.StatusOK {
		t.Fatalf("raw hit: %d %s", code, got)
	}
	want = st1
	want.RankRequests++
	want.ResultHits++
	want.TailHits++
	want.RawHits++
	if st2 := s.Stats(); st2 != want {
		t.Fatalf("raw hit: stats %+v, want %+v", st2, want)
	}

	// Two servers of three entries run one script of misses and hits;
	// one repeats each subgraph's body, the other sends a body in a new
	// order each time.
	lists := make([][]uint32, 6)
	for i := range lists {
		lists[i] = pagesOf(ds, i%4, 20+i)[i/4:]
	}
	script := []int{0, 1, 2, 0, 1, 2, 0, 3, 2, 0, 4, 2, 2, 5, 0, 2, 4, 5}
	servers := make([]*Server, 2)
	for v := range servers {
		if servers[v], err = NewServer(Options{Context: core.NewContext(ds.Graph), CacheEntries: 3}); err != nil {
			t.Fatal(err)
		}
	}
	for step, i := range script {
		for v, s := range servers {
			body := nodesBody(lists[i])
			if v == 1 {
				body = rotated(lists[i], step+1)
			}
			if code, got := postRaw(s, body); code != http.StatusOK {
				t.Fatalf("step %d, server %d: %d %s", step, v, code, got)
			}
		}
		if raw, full := lruOrder(servers[0]), lruOrder(servers[1]); !slices.Equal(raw, full) {
			t.Fatalf("step %d: LRU %v after raw hits, %v after full-path hits", step, raw, full)
		}
	}
	raw, full := servers[0].Stats(), servers[1].Stats()
	if raw.RawHits == 0 || full.RawHits != 0 || raw.Evictions == 0 || raw.Evictions != full.Evictions ||
		raw.TailHits != full.TailHits || raw.ResultHits != full.ResultHits || raw.Misses != full.Misses {
		t.Fatalf("raw-hit server %+v, full-path server %+v; want the same hits and evictions, raw hits on one side only", raw, full)
	}
}

// TestRawHitCoherence: a body whose hash slot another entry's body has
// taken is never answered with that entry's tail: the exact compare
// sends it down the full path, which answers its own result. (Eviction
// and a replaced result are TestRankHitBytes' and
// TestRankHitTailCoherence's cases.)
func TestRawHitCoherence(t *testing.T) {
	ds, _ := testWeb(t, 400, 44)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	canon := func(nodes []uint32) []graph.NodeID {
		ids, err := canonicalIDs(nodes, ds.Graph.NumNodes())
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	a, b := pagesOf(ds, 0, 30), pagesOf(ds, 1, 30)
	bodyA, bodyB := nodesBody(a), nodesBody(b)
	for _, body := range []string{bodyA, bodyA, bodyB, bodyB} { // each subgraph's miss and registering hit
		if code, got := postRaw(s, body); code != http.StatusOK {
			t.Fatalf("rank: %d %s", code, got)
		}
	}
	key := defaultKey(t, s)
	// B's body is registered again, under A's body's hash: it takes the
	// slot, and A loses its registration.
	s.mu.Lock()
	elB := s.cache.lookup(hashIDs(canon(b)), canon(b))
	s.cache.setRaw(elB, hashRaw([]byte(bodyA)), []byte(bodyB), key)
	s.mu.Unlock()
	if st := s.Stats(); st.StoredRawBytes != int64(len(bodyB)) {
		t.Fatalf("after the clash: stats %+v, want only B's body", st)
	}
	for _, tc := range []struct {
		body  string
		nodes []uint32
	}{{bodyA, a}, {bodyB, b}} {
		want := writeJSONBody(rankResultOf(canon(tc.nodes), cachedResult(s, canon(tc.nodes), key), true))
		if code, got := postRaw(s, tc.body); code != http.StatusOK || got != want {
			t.Fatalf("after the clash: %d %q, want 200 %q", code, got, want)
		}
	}
	if st := s.Stats(); st.RawHits != 0 {
		t.Fatalf("a body answered from a slot holding other bytes: %+v", st)
	}
}

// TestLRURawSlots: the raw index through the lruCache methods with
// chosen hashes — one body per slot and per entry, an exact compare
// before any answer, and eviction and dropRaw clearing both sides.
func TestLRURawSlots(t *testing.T) {
	c := newLRU(2)
	e1 := &entry{hash: 1, ids: []graph.NodeID{1}}
	e2 := &entry{hash: 2, ids: []graph.NodeID{2}}
	c.add(e1)
	c.add(e2)
	el := func(e *entry) *list.Element { return c.lookup(e.hash, e.ids) }
	body1, body2 := []byte(`{"nodes":[1]}`), []byte(`{"nodes":[2]}`)

	c.setRaw(el(e1), 7, body1, "k")
	if got, ok := c.getRaw(7, body1); !ok || got != e1 || c.ll.Front().Value != e1 {
		t.Fatalf("getRaw = %v, %v; want e1, promoted", got, ok)
	}
	if _, ok := c.getRaw(7, body2); ok {
		t.Fatal("a slot answered a body it does not hold")
	}
	body1[0] = 'x' // the registration is a copy
	if _, ok := c.getRaw(7, []byte(`{"nodes":[1]}`)); !ok {
		t.Fatal("registration aliases the caller's bytes")
	}
	c.setRaw(el(e2), 7, body2, "k") // e2 takes e1's slot
	if e1.raw != nil || len(c.byRaw) != 1 {
		t.Fatalf("e1 kept its body (%q) after losing its slot; %d slots", e1.raw, len(c.byRaw))
	}
	if got, ok := c.getRaw(7, body2); !ok || got != e2 {
		t.Fatalf("getRaw = %v, %v; want e2", got, ok)
	}
	c.setRaw(el(e2), 9, body2, "k") // e2 moves: its old slot is freed
	if _, ok := c.byRaw[7]; ok || len(c.byRaw) != 1 || e2.rawHash != 9 {
		t.Fatalf("slots %v after e2 re-registered", c.byRaw)
	}
	c.dropRaw(e2)
	if e2.raw != nil || e2.rawKey != "" || len(c.byRaw) != 0 {
		t.Fatalf("dropRaw left %q under %q, %d slots", e2.raw, e2.rawKey, len(c.byRaw))
	}
	c.setRaw(el(e1), 3, []byte(`{"nodes":[1]}`), "k")
	c.get(e2.hash, e2.ids) // e1 becomes the LRU victim
	c.add(&entry{hash: 5, ids: []graph.NodeID{5}})
	if _, ok := c.getRaw(3, []byte(`{"nodes":[1]}`)); ok || len(c.byRaw) != 0 {
		t.Fatalf("evicted entry still answers; %d slots", len(c.byRaw))
	}
}

// TestRawSizeRule: a body is registered only when it is no longer than
// the tail it selects. One exactly as long is registered and raw hit; one
// a byte longer is answered every time but never registered.
func TestRawSizeRule(t *testing.T) {
	ds, _ := testWeb(t, 400, 45)
	nodes := pagesOf(ds, 2, 25)
	ids, err := canonicalIDs(nodes, ds.Graph.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{0, 1} {
		s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
		if err != nil {
			t.Fatal(err)
		}
		if code, got := postRaw(s, nodesBody(nodes)); code != http.StatusOK {
			t.Fatalf("miss: %d %s", code, got)
		}
		res := cachedResult(s, ids, defaultKey(t, s))
		tail, err := hitTail(res)
		if err != nil {
			t.Fatal(err)
		}
		base := nodesBody(nodes)
		body := base + strings.Repeat(" ", len(tail)-len(base)+extra)
		want := writeJSONBody(rankResultOf(ids, res, true))
		for i := 0; i < 3; i++ {
			if code, got := postRaw(s, body); code != http.StatusOK || got != want {
				t.Fatalf("%d-byte body, %d-byte tail, hit %d: %d %q", len(body), len(tail), i, code, got)
			}
		}
		st := s.Stats()
		if wantRaw := int64(len(body)); extra == 0 && (st.StoredRawBytes != wantRaw || st.RawHits != 2) {
			t.Fatalf("%d-byte body, %d-byte tail: stats %+v, want it registered and raw hit twice", len(body), len(tail), st)
		}
		if extra == 1 && (st.StoredRawBytes != 0 || st.RawHits != 0 || st.TailHits != 2) {
			t.Fatalf("%d-byte body, %d-byte tail: stats %+v, want 2 tail hits and nothing registered", len(body), len(tail), st)
		}
	}
}

// TestRawHitAllocs: a repeat of a 2,000-id body through Server.Handler()
// is a raw hit that reads into a pooled buffer and writes from a pooled
// one. The bound sits below the 22 allocations the same hit made when it
// was decoded, canonicalized and read into a fresh buffer each time; a
// body buffer grown per request alone costs it ~6.
func TestRawHitAllocs(t *testing.T) {
	ds, crawl := benchCrawl(t)
	s, err := NewServer(Options{Context: core.NewContext(ds.Graph)})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(nodesBody(crawl[:2000]))
	for i := 0; i < 2; i++ { // the miss, then the hit that registers the body
		if code, got := postRaw(s, string(body)); code != http.StatusOK {
			t.Fatalf("rank %d: %d %s", i, code, got)
		}
	}
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/rank", rd)
	serve := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(rd)
		h.ServeHTTP(w, req)
	}
	// The fewest over up to 50 hits: a GC can empty the pools between
	// hits, and under -race sync.Pool drops a quarter of its Puts.
	fewest, hits := math.Inf(1), int64(0)
	for ; hits < 50 && fewest > 4; hits++ {
		fewest = min(fewest, testing.AllocsPerRun(1, serve))
	}
	// AllocsPerRun serves once more than it measures.
	if st := s.Stats(); st.RawHits != 2*hits {
		t.Fatalf("%d raw hits in %d repeats", st.RawHits, 2*hits)
	}
	if fewest > 4 {
		t.Fatalf("a raw hit allocates %v times, want at most 4", fewest)
	}
}
