package graph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func graphsEqual(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.Weighted() != b.Weighted() {
		return false
	}
	for u := 0; u < a.NumNodes(); u++ {
		oa, ob := a.OutNeighbors(NodeID(u)), b.OutNeighbors(NodeID(u))
		if len(oa) != len(ob) {
			return false
		}
		for k := range oa {
			if oa[k] != ob[k] {
				return false
			}
		}
		if a.Weighted() {
			wa, wb := a.OutWeights(NodeID(u)), b.OutWeights(NodeID(u))
			for k := range wa {
				if wa[k] != wb[k] {
					return false
				}
			}
		}
	}
	return true
}

func randomGraph(rng *rand.Rand, weighted bool) *Graph {
	n := 2 + rng.Intn(40)
	b := NewBuilder(n)
	m := rng.Intn(150)
	for i := 0; i < m; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if weighted {
			b.AddWeightedEdge(u, v, 0.25*float64(1+rng.Intn(8)))
		} else {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestEdgeListRoundTrip(t *testing.T) {
	check := func(seed int64, weighted bool) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), weighted)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			return false
		}
		back, err := ReadEdgeList(&buf)
		if err != nil {
			return false
		}
		return graphsEqual(g, back)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListParsing(t *testing.T) {
	in := `# nodes: 5
# a comment
0 1

1 2
2 0
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5 (header)", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	// A header alone may declare up to 2²⁰ nodes (one more is an error in
	// TestEdgeListErrors); past that, N needs as many bytes of input.
	if g, err := ReadEdgeList(strings.NewReader("# nodes: 1048576\n")); err != nil || g.NumNodes() != 1<<20 {
		t.Fatalf("header-only 2²⁰-node file: %v", err)
	}
}

func TestEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",              // too few fields
		"0 1 2 3\n",        // too many fields
		"a 1\n",            // bad source
		"0 b\n",            // bad target
		"0 1 x\n",          // bad weight
		"0 1 NaN\n",        // non-finite weight
		"0 1 Inf\n",        // non-finite weight
		"0 1 +Inf\n",       // non-finite weight
		"0 1 -Inf\n",       // non-finite weight
		"# nodes: -3\n0 1", // bad header
		// Headers past the 2³¹ node cap: unchecked, NodeID(n-1) wraps
		// the first two to a 2-node graph, and the third makes Build
		// allocate offset arrays for 2³¹+1 nodes.
		"# nodes: 4294967297\n0 1\n",
		"# nodes: 8589934593\n0 1\n",
		"# nodes: 2147483649\n0 1\n",
		// Node counts the input cannot back: an id past the cap (Build
		// would allocate 26.7 GB), one below it (~16 GB of offsets) and
		// a header at the cap over a tiny body.
		"3333333330 0\n",
		"1999999999 0\n",
		"# nodes: 2147483648\n0 1\n",
		"# nodes: 1048577\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := MustFromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	dir := t.TempDir()
	for _, name := range []string{"g.txt", "g.edges", "g.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("SaveFile(%s): %v", name, err)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", name, err)
		}
		if !graphsEqual(g, back) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadFileRejectsV1: a file in the retired v1 binary format fails
// with an error that names the format, not a text parse error.
func TestLoadFileRejectsV1(t *testing.T) {
	// The v1 image of 0→1, 1→2: magic, version 1, flags 0, then
	// uvarints n=3, m=2 and each node's degree and delta-coded targets.
	v1 := append([]byte(magicV1), 1, 0, 3, 2, 1, 1, 1, 2, 0)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadFile(path)
	if err == nil || !strings.Contains(err.Error(), "v1 binary format") {
		t.Fatalf("LoadFile(v1 image) error = %v, want one naming the v1 binary format", err)
	}
}

// TestEdgeListNeverPanics: random text mutations of a valid edge list.
func TestEdgeListNeverPanics(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), true)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	raw := buf.String()
	rng := rand.New(rand.NewSource(4))
	garble := []byte("xX9-# .\t\n")
	for trial := 0; trial < 300; trial++ {
		mutated := []byte(raw)
		pos := rng.Intn(len(mutated))
		mutated[pos] = garble[rng.Intn(len(garble))]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: ReadEdgeList panicked: %v", trial, r)
				}
			}()
			back, err := ReadEdgeList(strings.NewReader(string(mutated)))
			if err != nil {
				return
			}
			if verr := back.validate(); verr != nil {
				t.Fatalf("trial %d: corrupted edge list accepted with broken invariants: %v", trial, verr)
			}
		}()
	}
}
