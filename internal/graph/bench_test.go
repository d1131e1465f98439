package graph_test

// Loading-pipeline benchmarks, run from an external test package so the
// corpus can come from internal/gen and the end-to-end pipeline can
// rank through internal/core.
//
// The corpus is a synthetic web (gen.Generate) written once per scale
// and shared by every benchmark in the run. The default scale is ~1M
// edges — big enough that the O(1) mmap footprint is unambiguous,
// small enough for CI. Crawl scale (10M and
// 50M edges) is gated behind GRAPH_BENCH_CRAWL=1: at 50M edges the
// corpus alone is ~600 MB of CSR.
//
// The headline numbers these exist to pin:
//
//   - LoadV2 is straight io.ReadFull into the arrays: no per-edge
//     decode, no in-CSR rebuild;
//   - MmapV2 allocs/op and B/op are small constants independent of
//     graph size (the payload stays in the page cache; only the Graph
//     header and section bookkeeping touch the heap);
//   - ReadEdgeList/WriteEdgeList allocs/op stay flat (reused line
//     buffers, no strings.Fields garbage).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

type benchScale struct {
	name  string
	pages int // ~5.3 edges/page at gen defaults
}

func benchScales() []benchScale {
	s := []benchScale{{"1M", 200_000}}
	if os.Getenv("GRAPH_BENCH_CRAWL") != "" {
		s = append(s, benchScale{"10M", 1_900_000}, benchScale{"50M", 9_500_000})
	}
	return s
}

// corpus is one generated graph with its v2 rendition on disk, built
// lazily and shared across benchmarks (the 50M corpus takes real time
// to generate; paying it once per `go test -bench` run is enough).
type corpus struct {
	g      *graph.Graph
	v2     string
	v2Size int64
}

var corpora struct {
	sync.Mutex
	dir     string
	byPages map[int]*corpus
}

func corpusFor(b *testing.B, pages int) *corpus {
	b.Helper()
	corpora.Lock()
	defer corpora.Unlock()
	if c, ok := corpora.byPages[pages]; ok {
		return c
	}
	if corpora.dir == "" {
		dir, err := os.MkdirTemp("", "graphbench")
		if err != nil {
			b.Fatal(err)
		}
		corpora.dir = dir
		corpora.byPages = make(map[int]*corpus)
	}
	ds, err := gen.Generate(gen.Config{Pages: pages, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	c := &corpus{g: ds.Graph, v2: filepath.Join(corpora.dir, fmt.Sprintf("%d.v2", pages))}
	if err := graph.SaveFile(c.v2, c.g); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(c.v2)
	if err != nil {
		b.Fatal(err)
	}
	c.v2Size = st.Size()
	corpora.byPages[pages] = c
	return c
}

func TestMain(m *testing.M) {
	code := m.Run()
	if corpora.dir != "" {
		os.RemoveAll(corpora.dir)
	}
	os.Exit(code)
}

func forEachScale(b *testing.B, fn func(b *testing.B, c *corpus)) {
	for _, s := range benchScales() {
		b.Run(s.name, func(b *testing.B) {
			c := corpusFor(b, s.pages) // first caller pays generation; keep it out of the timing
			b.ResetTimer()
			fn(b, c)
		})
	}
}

var sinkGraph *graph.Graph

func BenchmarkLoadV2(b *testing.B) {
	forEachScale(b, func(b *testing.B, c *corpus) {
		b.SetBytes(c.v2Size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := graph.LoadFile(c.v2)
			if err != nil {
				b.Fatal(err)
			}
			sinkGraph = g
		}
	})
}

// BenchmarkMmapV2 measures the zero-copy open: allocs/op and B/op are
// the whole point — they must stay small constants however large the
// file is, because the CSR payload is aliased out of the mapping.
func BenchmarkMmapV2(b *testing.B) {
	forEachScale(b, func(b *testing.B, c *corpus) {
		b.SetBytes(c.v2Size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := graph.MmapFile(c.v2)
			if err != nil {
				b.Fatal(err)
			}
			if err := g.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineV2 is the crawl-shaped end-to-end path: serialize
// the generated graph to v2, map it back, build a ranking context over
// the mapped CSR, rank one subgraph, tear down. Generation itself runs
// once as corpus setup (it is deterministic input, not pipeline).
func BenchmarkPipelineV2(b *testing.B) {
	forEachScale(b, func(b *testing.B, c *corpus) {
		local := make([]graph.NodeID, 100)
		for i := range local {
			local[i] = graph.NodeID(i * (c.g.NumNodes() / len(local)))
		}
		path := filepath.Join(corpora.dir, "pipeline.v2")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := graph.SaveFile(path, c.g); err != nil {
				b.Fatal(err)
			}
			m, err := graph.MmapFile(path)
			if err != nil {
				b.Fatal(err)
			}
			sub, err := graph.NewSubgraph(m, local)
			if err != nil {
				b.Fatal(err)
			}
			chain, err := core.NewApproxChainCtx(core.NewContext(m), sub)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := chain.Run(core.Config{}); err != nil {
				b.Fatal(err)
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
		}
		if err := os.Remove(path); err != nil {
			b.Fatal(err)
		}
	})
}

// Text-loader allocation benchmarks: the parse and format hot paths
// must not allocate per line (reused buffers, byte-slice field
// splitting) — allocs/op here is the regression tripwire.
func BenchmarkReadEdgeList(b *testing.B) {
	c := corpusFor(b, 200_000)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, c.g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}

func BenchmarkWriteEdgeList(b *testing.B) {
	c := corpusFor(b, 200_000)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, c.g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := graph.WriteEdgeList(&buf, c.g); err != nil {
			b.Fatal(err)
		}
	}
}
