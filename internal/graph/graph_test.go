package graph

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	g := MustFromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {0, 1}}) // dup 0→1
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4 (duplicate merged)", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 1 || g.OutDegree(2) != 1 || g.OutDegree(3) != 0 {
		t.Fatalf("unexpected out-degrees %d %d %d %d",
			g.OutDegree(0), g.OutDegree(1), g.OutDegree(2), g.OutDegree(3))
	}
	if !g.Dangling(3) || g.Dangling(0) {
		t.Fatal("dangling detection wrong")
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v", got)
	}
	if got := g.InNeighbors(2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("InNeighbors(2) = %v", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(3, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestBuilderSelfLoopKept(t *testing.T) {
	g := MustFromEdges(2, [][2]NodeID{{0, 0}, {0, 1}})
	if g.NumEdges() != 2 || !g.HasEdge(0, 0) {
		t.Fatal("self-loop was not preserved")
	}
}

func TestBuilderEmptyGraphRejected(t *testing.T) {
	if _, err := NewBuilder(0).Build(); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBuilderMixedModesRejected(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddWeightedEdge(1, 0, 2)
	if _, err := b.Build(); err == nil {
		t.Fatal("mixed weighted/unweighted edges accepted")
	}
	b2 := NewBuilder(2)
	b2.AddWeightedEdge(1, 0, 2)
	b2.AddEdge(0, 1)
	if _, err := b2.Build(); err == nil {
		t.Fatal("mixed unweighted/weighted edges accepted")
	}
}

func TestWeightedBuilder(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(0, 1, 3) // merged: weight 5
	b.AddWeightedEdge(0, 2, 5)
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(2, 0, -1) // ignored
	b.AddWeightedEdge(2, 1, math.NaN())
	b.AddWeightedEdge(2, 0, math.Inf(1))
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.Weighted() {
		t.Fatal("graph should be weighted")
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	ws := g.OutWeights(0)
	if len(ws) != 2 || ws[0] != 5 || ws[1] != 5 {
		t.Fatalf("OutWeights(0) = %v", ws)
	}
	if g.WeightOut(0) != 10 {
		t.Fatalf("WeightOut(0) = %v, want 10", g.WeightOut(0))
	}
	if p := g.TransitionProb(0, 0); math.Abs(p-0.5) > 1e-15 {
		t.Fatalf("TransitionProb(0,0) = %v, want 0.5", p)
	}
	if !g.Dangling(2) {
		t.Fatal("node 2 with only rejected negative and non-finite edges must be dangling")
	}
	// In-weights must mirror out-weights.
	inW := g.InWeights(2)
	inN := g.InNeighbors(2)
	if len(inN) != 2 || inN[0] != 0 || inN[1] != 1 || inW[0] != 5 || inW[1] != 1 {
		t.Fatalf("in-adjacency of 2: %v weights %v", inN, inW)
	}
}

// TestInOutConsistency property: for random graphs, the in-adjacency is
// exactly the transpose of the out-adjacency.
func TestInOutConsistency(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := NewBuilder(n)
		m := rng.Intn(200)
		for i := 0; i < m; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// Count edges via both directions.
		type pair struct{ u, v NodeID }
		out := map[pair]bool{}
		for u := 0; u < n; u++ {
			for _, v := range g.OutNeighbors(NodeID(u)) {
				out[pair{NodeID(u), v}] = true
			}
		}
		cnt := 0
		for v := 0; v < n; v++ {
			for _, u := range g.InNeighbors(NodeID(v)) {
				if !out[pair{u, NodeID(v)}] {
					return false
				}
				cnt++
			}
		}
		return cnt == len(out) && cnt == g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDanglingNodes(t *testing.T) {
	g := MustFromEdges(5, [][2]NodeID{{0, 1}, {1, 2}})
	d := g.DanglingNodes()
	if len(d) != 3 || d[0] != 2 || d[1] != 3 || d[2] != 4 {
		t.Fatalf("DanglingNodes = %v", d)
	}
}

func TestNodeSet(t *testing.T) {
	s := NewNodeSet(100)
	if s.Len() != 0 || s.Contains(5) {
		t.Fatal("new set not empty")
	}
	s.Add(5)
	s.Add(63)
	s.Add(64)
	s.Add(5) // duplicate
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(5) || !s.Contains(63) || !s.Contains(64) || s.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if got := s.Slice(); len(got) != 3 || got[0] != 5 || got[1] != 63 || got[2] != 64 {
		t.Fatalf("Slice = %v", got)
	}
	s.Remove(63)
	if s.Contains(63) || s.Len() != 2 {
		t.Fatal("Remove failed")
	}
	s.Remove(63) // idempotent
	if s.Len() != 2 {
		t.Fatal("double remove changed count")
	}
	c := s.Clone()
	c.Add(1)
	if s.Contains(1) {
		t.Fatal("clone aliases original")
	}
	// Growth beyond initial capacity.
	s.Add(1000)
	if !s.Contains(1000) {
		t.Fatal("growth failed")
	}
	if s.Contains(2000) {
		t.Fatal("contains beyond words should be false")
	}
}

func TestSubgraphBasics(t *testing.T) {
	g := MustFromEdges(6, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	sub, err := NewSubgraph(g, []NodeID{3, 1, 0, 1}) // unsorted, duplicate
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	if sub.N() != 3 || sub.External() != 3 {
		t.Fatalf("N=%d External=%d", sub.N(), sub.External())
	}
	if sub.Local[0] != 0 || sub.Local[1] != 1 || sub.Local[2] != 3 {
		t.Fatalf("Local = %v", sub.Local)
	}
	if li, ok := sub.LocalID(3); !ok || li != 2 {
		t.Fatalf("LocalID(3) = %d,%v", li, ok)
	}
	if _, ok := sub.LocalID(2); ok {
		t.Fatal("2 must be external")
	}
	if sub.GlobalID(2) != 3 {
		t.Fatalf("GlobalID(2) = %d", sub.GlobalID(2))
	}
}

// TestSubgraphFootprint pins what indexing a subgraph allocates: the
// Member bitset (N/8 bytes), its rank directory (N/16) and the Local list
// (4n), about 200 KB for 100 pages of a 1<<20-page graph. An index sized
// 4N, such as a dense global-to-local array, would cost over 4 MB.
func TestSubgraphFootprint(t *testing.T) {
	const n = 1 << 20
	b := NewBuilder(n)
	b.EnsureNode(n - 1)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	local := make([]NodeID, 100)
	for i := range local {
		local[i] = NodeID(i * 10_007 % n) // ascending, ~160 words apart
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sub, err := NewSubgraph(g, local)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewSubgraph allocated %d bytes for %d of %d pages, want < 1 MiB", got, len(local), n)
	}
	for li, gid := range local {
		if got, ok := sub.LocalID(gid); !ok || got != uint32(li) {
			t.Fatalf("LocalID(%d) = %d,%v, want %d,true", gid, got, ok, li)
		}
		if _, ok := sub.LocalID(gid + 1); ok {
			t.Fatalf("LocalID(%d) reports a non-member as local", gid+1)
		}
	}
}

func TestSubgraphErrors(t *testing.T) {
	g := MustFromEdges(3, [][2]NodeID{{0, 1}})
	if _, err := NewSubgraph(nil, []NodeID{0}); err == nil {
		t.Error("nil global accepted")
	}
	if _, err := NewSubgraph(g, nil); err == nil {
		t.Error("empty local set accepted")
	}
	if _, err := NewSubgraph(g, []NodeID{7}); err == nil {
		t.Error("out-of-range local page accepted")
	}
	if _, err := NewSubgraph(g, []NodeID{0, 1, 2}); err == nil {
		t.Error("subgraph == global accepted")
	}
}

func TestInduce(t *testing.T) {
	g := MustFromEdges(6, [][2]NodeID{
		{0, 1}, {0, 4}, {1, 3}, {3, 0}, {4, 1}, {5, 3},
	})
	sub, err := NewSubgraph(g, []NodeID{0, 1, 3})
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	local, err := sub.Induce()
	if err != nil {
		t.Fatalf("Induce: %v", err)
	}
	if local.NumNodes() != 3 {
		t.Fatalf("induced nodes = %d, want 3", local.NumNodes())
	}
	// Internal edges: 0→1, 1→3, 3→0 (in local ids 0→1, 1→2, 2→0).
	if local.NumEdges() != 3 {
		t.Fatalf("induced edges = %d, want 3", local.NumEdges())
	}
	if !local.HasEdge(0, 1) || !local.HasEdge(1, 2) || !local.HasEdge(2, 0) {
		t.Fatal("induced edges wrong")
	}
}

func TestInduceNoInternalEdges(t *testing.T) {
	g := MustFromEdges(4, [][2]NodeID{{0, 2}, {1, 3}})
	sub, err := NewSubgraph(g, []NodeID{0, 1})
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	local, err := sub.Induce()
	if err != nil {
		t.Fatalf("Induce: %v", err)
	}
	if local.NumNodes() != 2 || local.NumEdges() != 0 {
		t.Fatalf("induced %d nodes %d edges, want 2/0", local.NumNodes(), local.NumEdges())
	}
}

func TestBoundary(t *testing.T) {
	// Figure 4 graph: locals A,B,C,D (0–3), externals X,Y,Z (4–6).
	g := MustFromEdges(7, [][2]NodeID{
		{0, 1}, {0, 2}, {0, 4}, {0, 6},
		{1, 3},
		{2, 1}, {2, 3},
		{3, 0},
		{4, 2}, {4, 5}, {4, 6},
		{5, 2}, {5, 4},
		{6, 2}, {6, 3},
	})
	sub, err := NewSubgraph(g, []NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	st := sub.Boundary()
	if st.InternalEdges != 6 {
		t.Errorf("InternalEdges = %d, want 6", st.InternalEdges)
	}
	if st.OutLinksToExternal != 2 {
		t.Errorf("OutLinksToExternal = %d, want 2", st.OutLinksToExternal)
	}
	if st.InLinksFromExternal != 4 {
		t.Errorf("InLinksFromExternal = %d, want 4 (X→C, Y→C, Z→C, Z→D)", st.InLinksFromExternal)
	}
	if st.ExternalInNeighbors != 3 {
		t.Errorf("ExternalInNeighbors = %d, want 3", st.ExternalInNeighbors)
	}
}

func TestStats(t *testing.T) {
	g := MustFromEdges(5, [][2]NodeID{{0, 0}, {0, 1}, {1, 2}, {2, 1}, {3, 1}})
	st := ComputeStats(g)
	if st.Nodes != 5 || st.Edges != 5 {
		t.Fatalf("nodes/edges = %d/%d", st.Nodes, st.Edges)
	}
	if st.Dangling != 1 { // node 4
		t.Errorf("Dangling = %d, want 1", st.Dangling)
	}
	if st.SelfLoops != 1 {
		t.Errorf("SelfLoops = %d, want 1", st.SelfLoops)
	}
	if st.Sources != 2 { // nodes 3 and 4 have no in-edges... node 0 has self-loop
		t.Errorf("Sources = %d, want 2", st.Sources)
	}
	if st.MaxInDegree != 3 { // node 1 ← 0,2,3
		t.Errorf("MaxInDegree = %d, want 3", st.MaxInDegree)
	}
	if math.Abs(st.AvgOutDegree-1.0) > 1e-15 {
		t.Errorf("AvgOutDegree = %v, want 1", st.AvgOutDegree)
	}
}

func TestDegreeHistograms(t *testing.T) {
	g := MustFromEdges(4, [][2]NodeID{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	h := OutDegreeHistogram(g, 2)
	// degrees: 3,1,0,0 capped at 2 → bucket0:2, bucket1:1, bucket2:1
	if h[0] != 2 || h[1] != 1 || h[2] != 1 {
		t.Fatalf("OutDegreeHistogram = %v", h)
	}
	hi := InDegreeHistogram(g, 10)
	// in-degrees: 0,1,2,1
	if hi[0] != 1 || hi[1] != 2 || hi[2] != 1 {
		t.Fatalf("InDegreeHistogram = %v", hi)
	}
}
