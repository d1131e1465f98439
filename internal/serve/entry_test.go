package serve

import (
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// nodesBody is the /v1/rank body for ids.
func nodesBody(ids []uint32) string {
	var b strings.Builder
	b.WriteString(`{"nodes":[`)
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(id), 10))
	}
	b.WriteString(`]}`)
	return b.String()
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEntryFootprint: a cached entry holds its scores, not the chain or
// the O(N) Subgraph index its result was computed from. After two ranks
// have built the Context's in-mass vector, 16 more entries over an
// edgeless 1<<20 page graph must grow the live heap by less than 1 MiB
// (a Subgraph index is 192 KiB at this N).
func TestEntryFootprint(t *testing.T) {
	g, err := graph.NewBuilder(1 << 20).Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Options{Context: core.NewContext(g)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	scattered := func() []uint32 {
		ids := make([]uint32, 100)
		for i := range ids {
			ids[i] = uint32(rng.Intn(g.NumNodes()))
		}
		return ids
	}
	for i := 0; i < 2; i++ {
		if code, body := postRaw(s, nodesBody(scattered())); code != http.StatusOK {
			t.Fatalf("warm-up rank %d: %d %s", i, code, body)
		}
	}
	before := liveHeap()
	for i := 0; i < 16; i++ {
		if code, body := postRaw(s, nodesBody(scattered())); code != http.StatusOK {
			t.Fatalf("rank %d: %d %s", i, code, body)
		}
	}
	after := liveHeap()
	if st := s.Stats(); st.Misses != 18 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 18 cached misses", st)
	}
	if grown := int64(after) - int64(before); grown >= 1<<20 {
		t.Fatalf("16 entries grew the live heap by %d bytes, want < 1 MiB", grown)
	}
}

// TestSearchOnEntriesWithoutChain: /v1/search over a batch-stored entry
// and over a disk-warm entry returns the same hits as over an entry a
// single query computed (no entry holds a chain), and each entry builds
// its engine once.
func TestSearchOnEntriesWithoutChain(t *testing.T) {
	ds, terms := testWeb(t, 800, 8)
	nodes := pagesOf(ds, 1, 60)
	counts := map[uint32]int{}
	var probe uint32
	for _, v := range nodes {
		for _, tm := range terms[v] {
			if counts[tm]++; counts[tm] > counts[probe] {
				probe = tm
			}
		}
	}
	query := searchRequest{Nodes: nodes, Terms: []uint32{probe}, K: 10}
	search := func(url string) []searchHit {
		t.Helper()
		var r searchResponse
		if code := post(t, url+"/v1/search", query, &r); code != http.StatusOK {
			t.Fatalf("search: status %d", code)
		}
		if !r.Cached || len(r.Hits) == 0 {
			t.Fatalf("search: cached=%v with %d hits, want cached hits", r.Cached, len(r.Hits))
		}
		return r.Hits
	}
	path := filepath.Join(t.TempDir(), "cache.gob")

	computed, hsComputed := newTestServer(t, Options{Context: core.NewContext(ds.Graph), Terms: terms, DiskCache: path})
	if code := post(t, hsComputed.URL+"/v1/rank", rankRequest{Nodes: nodes}, nil); code != http.StatusOK {
		t.Fatalf("rank: status %d", code)
	}
	want := search(hsComputed.URL)
	if err := computed.SaveDiskCache(); err != nil {
		t.Fatal(err)
	}

	batched, hsBatched := newTestServer(t, Options{Context: core.NewContext(ds.Graph), Terms: terms})
	if code := post(t, hsBatched.URL+"/v1/rank", rankRequest{Subgraphs: [][]uint32{nodes}}, nil); code != http.StatusOK {
		t.Fatalf("batch rank: status %d", code)
	}

	warm, hsWarm := newTestServer(t, Options{Context: core.NewContext(ds.Graph), Terms: terms, DiskCache: path})
	if n, err := warm.LoadDiskCache(); err != nil || n != 1 {
		t.Fatalf("LoadDiskCache: %d entries, %v", n, err)
	}

	for name, srv := range map[string]struct {
		s   *Server
		url string
	}{"batch-stored": {batched, hsBatched.URL}, "disk-warm": {warm, hsWarm.URL}} {
		ran := srv.s.Stats().Computations
		for i := 0; i < 2; i++ {
			if got := search(srv.url); !slices.Equal(got, want) {
				t.Errorf("%s search %d: hits %v, want %v", name, i, got, want)
			}
		}
		if st := srv.s.Stats(); st.EnginesBuilt != 1 || st.Computations != ran {
			t.Errorf("%s: stats = %+v, want 1 engine built and no computation by the searches", name, st)
		}
	}
}
