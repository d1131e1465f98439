package serve

import (
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// writeCacheFile writes a disk cache with the right format and graph
// signature for the server's graph, holding entries.
func writeCacheFile(t *testing.T, s *Server, entries ...diskEntry) {
	t.Helper()
	f, err := os.Create(s.diskPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(f).Encode(&diskFile{Format: diskFormat, GraphSig: s.sig, Entries: entries, Sum: diskSum(entries)}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// rankCold requires that /v1/rank answers nodes with a freshly computed
// result: a 200 whose body decodes, is not cached, and aligns one score
// with each canonical id.
func rankCold(t *testing.T, s *Server, nodes []uint32) {
	t.Helper()
	code, body := postRaw(s, nodesBody(nodes))
	var got rankResult
	if err := json.Unmarshal([]byte(body), &got); code != http.StatusOK || err != nil {
		t.Fatalf("rank %v: %d %q (%v)", nodes, code, body, err)
	}
	if got.Cached || len(got.Scores) != len(got.Nodes) {
		t.Fatalf("rank %v: cached=%v with %d nodes and %d scores, want a computed answer", nodes, got.Cached, len(got.Nodes), len(got.Scores))
	}
}

// TestDiskLoadRejectsUnservableEntries: a cache file with the right
// format and signature may still hold entries the live path would serve
// wrong. LoadDiskCache drops each of them, counts it, keeps the file's
// good entries, and the dropped subgraph is computed on request.
func TestDiskLoadRejectsUnservableEntries(t *testing.T) {
	ds, _ := testWeb(t, 400, 50)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		ids    []uint32
		scores []float64
		lambda float64
		ask    []uint32 // a request for the dropped subgraph, if valid
	}{
		// Served page 4 = 0.9: the ids were re-sorted, the scores not.
		{"unsorted ids", []uint32{9, 4}, []float64{0.9, 0.1}, 0, []uint32{4, 9}},
		// Served 2 nodes and 3 scores.
		{"duplicate ids", []uint32{20, 20, 21}, []float64{0.3, 0.3, 0.4}, 0, []uint32{20, 21}},
		// Served a 200 with an empty body.
		{"NaN score", []uint32{4, 9}, []float64{nan, 0.5}, 0.5, []uint32{4, 9}},
		{"infinite score", []uint32{4, 9}, []float64{0.5, inf}, 0, []uint32{4, 9}},
		{"negative score", []uint32{4, 9}, []float64{-0.25, 0.75}, 0.5, []uint32{4, 9}},
		{"too few scores", []uint32{4, 9}, []float64{0.5}, 0.5, []uint32{4, 9}},
		{"NaN lambda", []uint32{4, 9}, []float64{0.25, 0.25}, nan, []uint32{4, 9}},
		{"infinite lambda", []uint32{4, 9}, []float64{0.25, 0.25}, -inf, []uint32{4, 9}},
		{"id outside graph", []uint32{4, 400}, []float64{0.25, 0.25}, 0.5, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServer(Options{Context: core.NewContext(ds.Graph), DiskCache: filepath.Join(t.TempDir(), "cache.gob")})
			if err != nil {
				t.Fatal(err)
			}
			key := defaultKey(t, s)
			good := diskEntry{IDs: []uint32{30, 31}, Results: []diskResult{{CfgKey: key, Scores: []float64{0.25, 0.25}, Lambda: 0.5, Converged: true}}}
			bad := diskEntry{IDs: tc.ids, Results: []diskResult{{CfgKey: key, Scores: tc.scores, Lambda: tc.lambda, Converged: true}}}
			writeCacheFile(t, s, bad, good)
			if n, err := s.LoadDiskCache(); n != 1 || err != nil {
				t.Fatalf("LoadDiskCache: %d entries, %v; want the good one", n, err)
			}
			if st := s.Stats(); st.DiskEntriesLoaded != 1 || st.DiskEntriesRejected != 1 {
				t.Fatalf("stats %+v, want 1 entry loaded and 1 rejected", st)
			}
			if tc.ask != nil {
				rankCold(t, s, tc.ask)
			}
		})
	}
}

// TestDiskLoadTruncated: a cut-off cache file is a load error that
// loads nothing, and the server still answers, cold.
func TestDiskLoadTruncated(t *testing.T) {
	ds, _ := testWeb(t, 400, 51)
	path := filepath.Join(t.TempDir(), "cache.gob")
	nodes := pagesOf(ds, 2, 40)
	s1, err := NewServer(Options{Context: core.NewContext(ds.Graph), DiskCache: path})
	if err != nil {
		t.Fatal(err)
	}
	rankCold(t, s1, nodes)
	if err := s1.SaveDiskCache(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Options{Context: core.NewContext(ds.Graph), DiskCache: path})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.LoadDiskCache(); n != 0 || err == nil {
		t.Fatalf("LoadDiskCache of a truncated file: %d entries, %v; want 0 and an error", n, err)
	}
	if st := s2.Stats(); st.DiskEntriesLoaded != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats %+v, want nothing loaded", st)
	}
	rankCold(t, s2, nodes)
}

// TestDiskLoadChecksum: a saved file whose one score had its lowest
// mantissa bit flipped — still finite and non-negative, so every shape
// and range check passes — fails its checksum: LoadDiskCache loads
// nothing and reports an error, and the subgraph is computed on request.
// The unflipped file loads, and a file of the previous format (which
// had no checksum) is discarded as stale.
func TestDiskLoadChecksum(t *testing.T) {
	ds, _ := testWeb(t, 400, 52)
	path := filepath.Join(t.TempDir(), "cache.gob")
	nodes := pagesOf(ds, 1, 40)
	newServer := func() *Server {
		s, err := NewServer(Options{Context: core.NewContext(ds.Graph), DiskCache: path})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := newServer()
	rankCold(t, s1, nodes)
	if err := s1.SaveDiskCache(); err != nil {
		t.Fatal(err)
	}
	if n, err := newServer().LoadDiskCache(); n != 1 || err != nil {
		t.Fatalf("LoadDiskCache of the saved file: %d entries, %v; want 1", n, err)
	}

	var df diskFile
	rewrite := func(edit func()) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		err = gob.NewDecoder(f).Decode(&df)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		edit()
		f, err = os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(&df); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(func() {
		scores := df.Entries[0].Results[0].Scores
		scores[7] = math.Float64frombits(math.Float64bits(scores[7]) ^ 1)
	})
	s2 := newServer()
	if n, err := s2.LoadDiskCache(); n != 0 || err == nil {
		t.Fatalf("LoadDiskCache of a flipped score: %d entries, %v; want 0 and an error", n, err)
	}
	if st := s2.Stats(); st.DiskEntriesLoaded != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats %+v, want nothing loaded", st)
	}
	rankCold(t, s2, nodes)

	rewrite(func() { df.Format = 1 })
	if n, err := newServer().LoadDiskCache(); n != 0 || err != nil {
		t.Fatalf("LoadDiskCache of a format-1 file: %d entries, %v; want it discarded", n, err)
	}
}
