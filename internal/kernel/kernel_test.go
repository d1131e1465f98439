package kernel

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// pushReference runs one push-based iteration (the formulation the
// engines used before this package existed) as an independent oracle.
func pushReference(g *graph.Graph, cur, p, d []float64, eps float64) []float64 {
	n := g.NumNodes()
	next := make([]float64, n)
	danglingMass := 0.0
	for u := 0; u < n; u++ {
		if g.Dangling(uint32(u)) {
			danglingMass += cur[u]
		}
	}
	for v := 0; v < n; v++ {
		next[v] = (1-eps)*p[v] + eps*danglingMass*d[v]
	}
	for u := 0; u < n; u++ {
		adj := g.OutNeighbors(uint32(u))
		if len(adj) == 0 || g.Dangling(uint32(u)) {
			continue
		}
		ws := g.OutWeights(uint32(u))
		if ws == nil {
			share := eps * cur[u] / float64(len(adj))
			for _, v := range adj {
				next[v] += share
			}
		} else {
			scale := eps * cur[u] / g.WeightOut(uint32(u))
			for k, v := range adj {
				next[v] += scale * ws[k]
			}
		}
	}
	return next
}

func randomGraph(t testing.TB, rng *rand.Rand, n int, weighted bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		if rng.Intn(10) == 0 {
			continue // dangling
		}
		deg := 1 + rng.Intn(6)
		for e := 0; e < deg; e++ {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			if weighted {
				b.AddWeightedEdge(uint32(u), uint32(v), 0.2+rng.Float64())
			} else {
				b.AddEdge(uint32(u), uint32(v))
			}
		}
	}
	b.EnsureNode(uint32(n - 1))
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func uniformVec(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1.0 / float64(n)
	}
	return p
}

// TestSnapshotSweepMatchesPush: a pull sweep over the snapshot, and
// one over the transpose of the push snapshot, compute the same next
// vector as the push oracle (up to float reassociation), on unweighted
// and weighted graphs with dangling nodes.
func TestSnapshotSweepMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(t, rng, 60+trial*17, trial%2 == 1)
		n := g.NumNodes()
		c := Snapshot(g)
		push := PushSnapshot(g)
		cur := make([]float64, n)
		for i := range cur {
			cur[i] = rng.Float64()
		}
		p := uniformVec(n)
		want := pushReference(g, cur, p, p, 0.85)
		for name, pull := range map[string]*CSR{"snapshot": c, "push transpose": push.Pull()} {
			next := make([]float64, n)
			pull.Sweep(next, cur, p, p, 0.85)
			for v := 0; v < n; v++ {
				if math.Abs(next[v]-want[v]) > 1e-12 {
					t.Fatalf("trial %d %s: next[%d] = %v, push reference %v", trial, name, v, next[v], want[v])
				}
			}
		}
		push.Release()
		c.Release()
	}
}

// TestSweepDelta: the returned partial delta is the L1 change over the
// swept range.
func TestSweepDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(t, rng, 80, false)
	n := g.NumNodes()
	c := Snapshot(g)
	defer c.Release()
	cur := uniformVec(n)
	next := make([]float64, n)
	delta := c.Sweep(next, cur, cur, cur, 0.85)
	want := 0.0
	for i := range next {
		want += math.Abs(next[i] - cur[i])
	}
	if math.Abs(delta-want) > 1e-12 {
		t.Fatalf("delta %v, recomputed %v", delta, want)
	}
}

// TestSweepPoolBitIdentical: the iterate produced by a SweepPool round
// is bit-identical to the sequential Sweep for every worker count —
// each target's in-row is accumulated whole, in CSR order, no matter
// how targets are partitioned.
func TestSweepPoolBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 300, true)
	n := g.NumNodes()
	c := Snapshot(g)
	defer c.Release()
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = rng.Float64()
	}
	p := uniformVec(n)
	ref := make([]float64, n)
	refDelta := c.Sweep(ref, cur, p, p, 0.85)
	for _, workers := range []int{1, 2, 3, 8} {
		pool := NewSweepPool(c, workers)
		if pool.Parts() != workers {
			t.Fatalf("pool for %d parts has %d", workers, pool.Parts())
		}
		next := make([]float64, n)
		delta := pool.Sweep(context.Background(), next, cur, p, p, 0.85)
		pool.Close()
		for v := range next {
			if next[v] != ref[v] {
				t.Fatalf("workers=%d: next[%d] = %v differs from sequential %v", workers, v, next[v], ref[v])
			}
		}
		if workers == 1 && delta != refDelta {
			t.Fatalf("single-part delta %v differs from sequential %v", delta, refDelta)
		}
	}
}

// TestSweepPoolReusedRounds: the point of the pool is running MANY
// rounds over the same resident workers. Drive a short power iteration
// through a pool and check every iterate against the sequential sweep
// — bit-identical at each round, with the same cur/next swap — on a
// weighted snapshot and on a uniform one, which the pool sweeps
// through its own pre-scaled vector. The pool caps its parts at
// GOMAXPROCS, so the test raises it to get four.
func TestSweepPoolReusedRounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(15))
	for _, weighted := range []bool{true, false} {
		g := randomGraph(t, rng, 250, weighted)
		c := Snapshot(g)
		if c.Uniform() == weighted {
			t.Fatalf("weighted=%v snapshot has Uniform()=%v", weighted, c.Uniform())
		}
		sweepPoolRounds(t, c, 4)
		c.Release()
	}
}

// sweepPoolRounds runs 12 rounds of a parts-part pool over c beside
// the sequential sweep and fails on the first bit that differs.
func sweepPoolRounds(t *testing.T, c *CSR, parts int) {
	t.Helper()
	n := c.N
	p := uniformVec(n)
	pool := NewSweepPool(c, parts)
	defer pool.Close()
	if pool.Parts() != parts {
		t.Fatalf("pool has %d parts, want %d", pool.Parts(), parts)
	}
	cur, next := append([]float64(nil), p...), make([]float64, n)
	seqCur, seqNext := append([]float64(nil), p...), make([]float64, n)
	for round := 0; round < 12; round++ {
		pool.Sweep(context.Background(), next, cur, p, p, 0.85)
		c.Sweep(seqNext, seqCur, p, p, 0.85)
		for v := range next {
			if next[v] != seqNext[v] {
				t.Fatalf("round %d: next[%d] = %v differs from sequential %v", round, v, next[v], seqNext[v])
			}
		}
		cur, next = next, cur
		seqCur, seqNext = seqNext, seqCur
	}
}

// TestSweepPoolCancelled: a cancelled context leaves the round without
// scanning; the caller-side contract is that next is then untrusted,
// which the engines enforce with a post-barrier ctx check.
func TestSweepPoolCancelled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(10))
	g := randomGraph(t, rng, 50, false)
	c := Snapshot(g)
	defer c.Release()
	n := g.NumNodes()
	cur := uniformVec(n)
	next := make([]float64, n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pool := NewSweepPool(c, 4)
	defer pool.Close()
	pool.Sweep(ctx, next, cur, cur, cur, 0.85)
	for _, x := range next {
		if x != 0 {
			t.Fatal("cancelled sweep wrote into next")
		}
	}
}

// TestSweepPoolCapsParts: a pool runs at most GOMAXPROCS parts,
// whatever it is asked for.
func TestSweepPoolCapsParts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := Snapshot(randomGraph(t, rand.New(rand.NewSource(16)), 100, false))
	defer c.Release()
	pool := NewSweepPool(c, 8)
	defer pool.Close()
	if pool.Parts() != 2 || PoolParts(8) != 2 {
		t.Fatalf("at GOMAXPROCS 2: pool has %d parts, PoolParts(8) = %d; want 2", pool.Parts(), PoolParts(8))
	}
}

// TestDeltaPadFillsCacheLine: neighboring SweepPool workers' delta
// slots lie at least one 64-byte cache line apart, so the workers'
// end-of-round stores never write the same line.
func TestDeltaPadFillsCacheLine(t *testing.T) {
	const cacheLine = 64
	if stride := deltaPad * int(unsafe.Sizeof(float64(0))); stride < cacheLine {
		t.Fatalf("delta slot stride is %d bytes, want at least one %d-byte cache line", stride, cacheLine)
	}
}

// TestPartitionByEdges: a pool's bounds are monotone, cover [0,n], and
// every part's edge+node cost stays near the ideal share even when one
// hub holds most in-edges.
func TestPartitionByEdges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	// A star: node 0 has n-1 in-edges, everyone else ≤ 1.
	n := 1000
	b := graph.NewBuilder(n)
	for u := 1; u < n; u++ {
		b.AddEdge(uint32(u), 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	c := Snapshot(g)
	defer c.Release()
	for _, parts := range []int{1, 2, 4, 7, 16} {
		pool := NewSweepPool(c, parts)
		bounds := pool.bounds
		pool.Close()
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("parts=%d: bounds do not cover [0,%d]: %v", parts, n, bounds)
		}
		total := c.InOff[n] + int64(n)
		ideal := total / int64(len(bounds)-1)
		for w := 0; w+1 < len(bounds); w++ {
			if bounds[w] > bounds[w+1] {
				t.Fatalf("parts=%d: bounds not monotone: %v", parts, bounds)
			}
			cost := c.InOff[bounds[w+1]] - c.InOff[bounds[w]] + int64(bounds[w+1]-bounds[w])
			// The hub's cost is indivisible, so one part may exceed the
			// ideal by the hub's whole in-degree; everything else must
			// stay within ideal + max single-node cost.
			if cost > ideal+int64(n) {
				t.Fatalf("parts=%d part %d: cost %d far above ideal %d", parts, w, cost, ideal)
			}
		}
	}
	// parts > n clamps.
	small := Snapshot(graph.MustFromEdges(3, [][2]graph.NodeID{{0, 1}, {1, 2}}))
	defer small.Release()
	pool := NewSweepPool(small, 16)
	defer pool.Close()
	bounds := pool.bounds
	if len(bounds) != 4 || bounds[3] != 3 {
		t.Fatalf("clamped bounds wrong: %v", bounds)
	}
}

// TestDanglingWeights: fractional dangling weights scale the mass, on
// both snapshot kinds.
func TestDanglingWeights(t *testing.T) {
	c := &CSR{N: 3, InOff: []int64{0, 0, 0, 0}, DanglingIdx: []uint32{0, 2}, DanglingW: []float64{1, 0.25}}
	push := &PushCSR{N: 3, OutOff: []int64{0, 0, 0, 0}, DanglingIdx: c.DanglingIdx, DanglingW: c.DanglingW}
	cur := []float64{0.4, 0.4, 0.2}
	want := 0.4 + 0.25*0.2
	if got := c.DanglingMass(cur); math.Abs(got-want) > 1e-15 {
		t.Fatalf("CSR.DanglingMass = %v, want %v", got, want)
	}
	if got := push.DanglingMass(cur); math.Abs(got-want) > 1e-15 {
		t.Fatalf("PushCSR.DanglingMass = %v, want %v", got, want)
	}
}

// bareSource hides a graph's FlatInSource/FlatOutSource methods so the
// snapshots are forced down their generic (non-aliasing) build paths.
type bareSource struct{ Source }

// TestPushSnapshotMatchesOracle: one push-kernel sweep equals the
// push oracle (up to per-edge rounding differences — the kernel
// multiplies by a precomputed reciprocal where the oracle divides) on
// unweighted and weighted graphs, through both the aliased and the
// generic snapshot builds.
func TestPushSnapshotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(t, rng, 70+trial*13, trial%2 == 1)
		n := g.NumNodes()
		for _, src := range []Source{g, bareSource{g}} {
			c := PushSnapshot(src)
			cur := make([]float64, n)
			for i := range cur {
				cur[i] = rng.Float64()
			}
			p := uniformVec(n)
			want := pushReference(g, cur, p, p, 0.85)
			next := make([]float64, n)
			c.Sweep(next, cur, p, p, 0.85)
			for v := 0; v < n; v++ {
				if math.Abs(next[v]-want[v]) > 1e-12 {
					t.Fatalf("trial %d: next[%d] = %v, oracle %v", trial, v, next[v], want[v])
				}
			}
			c.Release()
		}
	}
}

// TestPushSweepDelta: the push sweep's return value is the L1 change.
func TestPushSweepDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(t, rng, 90, false)
	n := g.NumNodes()
	c := PushSnapshot(g)
	defer c.Release()
	cur := uniformVec(n)
	next := make([]float64, n)
	delta := c.Sweep(next, cur, cur, cur, 0.85)
	want := 0.0
	for i := range next {
		want += math.Abs(next[i] - cur[i])
	}
	if math.Abs(delta-want) > 1e-12 {
		t.Fatalf("delta %v, recomputed %v", delta, want)
	}
}

// TestScaledSweepBitIdentical: on a uniform snapshot the scaled sweep
// (pre-multiplied gather-add) produces the BIT-identical iterate and
// delta of the probability-carrying sweep — the same doubles multiply
// in the same order, only hoisted out of the per-edge loop.
func TestScaledSweepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(t, rng, 240, false)
	n := g.NumNodes()
	c := Snapshot(g)
	defer c.Release()
	if !c.Uniform() {
		t.Fatal("unweighted graph snapshot is not uniform")
	}
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = rng.Float64()
	}
	p := uniformVec(n)
	dm := c.DanglingMass(cur)
	ref := make([]float64, n)
	refDelta := c.Sweep(ref, cur, p, p, 0.85)
	scaled := make([]float64, n)
	c.scaleInto(scaled, cur)
	next := make([]float64, n)
	delta := c.sweepRangeScaled(next, scaled, cur, p, p, 0, n, 0.85, dm)
	if delta != refDelta {
		t.Fatalf("scaled delta %v differs from probability-path delta %v", delta, refDelta)
	}
	for v := 0; v < n; v++ {
		if next[v] != ref[v] {
			t.Fatalf("next[%d] = %v not bit-identical to %v", v, next[v], ref[v])
		}
	}
	// The pool sweeps a uniform snapshot through its own scaled vector,
	// with the same identity.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	pool := NewSweepPool(c, 3)
	defer pool.Close()
	if pool.scaled == nil {
		t.Fatal("pool over a uniform snapshot has no scaled vector")
	}
	par := make([]float64, n)
	pool.Sweep(context.Background(), par, cur, p, p, 0.85)
	for v := 0; v < n; v++ {
		if par[v] != ref[v] {
			t.Fatalf("pooled scaled next[%d] = %v not bit-identical to %v", v, par[v], ref[v])
		}
	}
}

// TestSnapshotAliasMatchesGeneric: the aliased in-snapshot of an
// unweighted graph sweeps bit-identically to the generic rebuild (same
// row order, same probabilities), so engines may take either path.
func TestSnapshotAliasMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGraph(t, rng, 150, false)
	n := g.NumNodes()
	aliased := Snapshot(g)
	defer aliased.Release()
	generic := Snapshot(bareSource{g})
	defer generic.Release()
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = rng.Float64()
	}
	p := uniformVec(n)
	a := make([]float64, n)
	b := make([]float64, n)
	da := aliased.Sweep(a, cur, p, p, 0.85)
	db := generic.Sweep(b, cur, p, p, 0.85)
	if da != db {
		t.Fatalf("aliased delta %v differs from generic %v", da, db)
	}
	for v := 0; v < n; v++ {
		if a[v] != b[v] {
			t.Fatalf("next[%d]: aliased %v, generic %v", v, a[v], b[v])
		}
	}
}

// TestPoolRoundTrip: a recycled buffer is reused when large enough and
// the requested length is honored.
func TestPoolRoundTrip(t *testing.T) {
	v := GetVec(128)
	if len(v) != 128 {
		t.Fatalf("GetVec(128) has length %d", len(v))
	}
	PutVec(v)
	w := GetVec(64)
	if len(w) != 64 {
		t.Fatalf("GetVec(64) has length %d", len(w))
	}
	PutVec(w)
	ids := GetIDs(16)
	if len(ids) != 16 {
		t.Fatalf("GetIDs(16) has length %d", len(ids))
	}
	PutIDs(ids)
	off := GetOff(9)
	if len(off) != 9 {
		t.Fatalf("GetOff(9) has length %d", len(off))
	}
	PutOff(off)
	// Zero-capacity buffers are dropped, not pooled.
	PutVec(nil)
	PutIDs(nil)
	PutOff(nil)
}

// TestSnapshotWeightedZeroOut: a weighted node with zero total
// out-weight is dangling; its listed edges must not leave garbage slots
// in the CSR.
func TestSnapshotWeightedZeroOut(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 0) // zero-weight edge: node 0 is dangling
	b.AddWeightedEdge(1, 2, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.Dangling(0) {
		t.Skip("builder normalizes zero-weight edges; nothing to test")
	}
	c := Snapshot(g)
	defer c.Release()
	if c.InOff[3] != 1 {
		t.Fatalf("want 1 in-edge (1→2), got %d", c.InOff[3])
	}
	if len(c.DanglingIdx) != 2 || c.DanglingIdx[0] != 0 || c.DanglingIdx[1] != 2 {
		t.Fatalf("dangling set wrong: %v", c.DanglingIdx)
	}
}
