package kernel

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// The aliasing contract over a memory-mapped graph: Snapshot and
// PushSnapshot treat an mmap-backed CSR exactly like a heap CSR — the
// unweighted fast paths alias the mapped slices directly — and every
// sweep over the mapped snapshot is bit-identical to the heap one.

func mappedTwin(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.v2")
	if err := graph.SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	m, err := graph.MmapFile(path)
	if err != nil {
		t.Fatalf("MmapFile: %v", err)
	}
	t.Cleanup(func() {
		if err := m.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return m
}

func randomKernelGraph(t *testing.T, seed int64, n, m int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSnapshotOverMmapGraph(t *testing.T) {
	g := randomKernelGraph(t, 31, 200, 1200)
	m := mappedTwin(t, g)

	heap := Snapshot(g)
	defer heap.Release()
	mapped := Snapshot(m)
	defer mapped.Release()

	if heap.N != mapped.N || len(heap.InSrc) != len(mapped.InSrc) {
		t.Fatalf("snapshot shapes differ: N %d/%d, edges %d/%d", heap.N, mapped.N, len(heap.InSrc), len(mapped.InSrc))
	}
	for i := range heap.InOff {
		if heap.InOff[i] != mapped.InOff[i] {
			t.Fatalf("InOff[%d] differs", i)
		}
	}
	for k := range heap.InSrc {
		if heap.InSrc[k] != mapped.InSrc[k] {
			t.Fatalf("InSrc[%d] differs", k)
		}
		if heap.InProb[k] != mapped.InProb[k] {
			t.Fatalf("InProb[%d] differs", k)
		}
	}
	if (heap.InvOut == nil) != (mapped.InvOut == nil) {
		t.Fatal("aliasing fast path taken for one snapshot but not the other")
	}

	n := g.NumNodes()
	cur := make([]float64, n)
	p := make([]float64, n)
	for i := range cur {
		cur[i] = float64(i+1) / float64(n)
		p[i] = 1.0 / float64(n)
	}
	next1 := make([]float64, n)
	next2 := make([]float64, n)
	dm := heap.DanglingMass(cur)
	if dm2 := mapped.DanglingMass(cur); dm != dm2 {
		t.Fatalf("dangling mass differs: %v vs %v", dm, dm2)
	}
	heap.Sweep(next1, cur, p, p, 0.85)
	mapped.Sweep(next2, cur, p, p, 0.85)
	for i := range next1 {
		if next1[i] != next2[i] {
			t.Fatalf("sweep result differs at %d: %v vs %v", i, next1[i], next2[i])
		}
	}
}

func TestPushSnapshotOverMmapGraph(t *testing.T) {
	g := randomKernelGraph(t, 37, 150, 900)
	m := mappedTwin(t, g)

	heap := PushSnapshot(g)
	defer heap.Release()
	mapped := PushSnapshot(m)
	defer mapped.Release()

	if heap.N != mapped.N || len(heap.OutDst) != len(mapped.OutDst) {
		t.Fatalf("push snapshot shapes differ")
	}
	for i := range heap.OutOff {
		if heap.OutOff[i] != mapped.OutOff[i] {
			t.Fatalf("OutOff[%d] differs", i)
		}
	}
	for k := range heap.OutDst {
		if heap.OutDst[k] != mapped.OutDst[k] {
			t.Fatalf("OutDst[%d] differs", k)
		}
	}

	n := g.NumNodes()
	cur := make([]float64, n)
	p := make([]float64, n)
	for i := range cur {
		cur[i] = float64(n-i) / float64(n)
		p[i] = 1.0 / float64(n)
	}
	next1 := make([]float64, n)
	next2 := make([]float64, n)
	if dm, dm2 := heap.DanglingMass(cur), mapped.DanglingMass(cur); dm != dm2 {
		t.Fatalf("dangling mass differs: %v vs %v", dm, dm2)
	}
	heap.Sweep(next1, cur, p, p, 0.85)
	mapped.Sweep(next2, cur, p, p, 0.85)
	for i := range next1 {
		if next1[i] != next2[i] {
			t.Fatalf("push sweep differs at %d: %v vs %v", i, next1[i], next2[i])
		}
	}
}
