package graph

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

// graphsDeepEqual extends graphsEqual to every internal array,
// including the derived in-CSR — bit-level equality of two loads.
func graphsDeepEqual(a, b *Graph) bool {
	if !graphsEqual(a, b) {
		return false
	}
	if len(a.inOff) != len(b.inOff) || len(a.inAdj) != len(b.inAdj) {
		return false
	}
	for i := range a.inOff {
		if a.inOff[i] != b.inOff[i] {
			return false
		}
	}
	for i := range a.inAdj {
		if a.inAdj[i] != b.inAdj[i] {
			return false
		}
	}
	if (a.inW == nil) != (b.inW == nil) || (a.wOut == nil) != (b.wOut == nil) {
		return false
	}
	for i := range a.inW {
		if a.inW[i] != b.inW[i] {
			return false
		}
	}
	for i := range a.wOut {
		if a.wOut[i] != b.wOut[i] {
			return false
		}
	}
	return true
}

func TestV2RoundTrip(t *testing.T) {
	check := func(seed int64, weighted bool) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), weighted)
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, g); err != nil {
			return false
		}
		back, err := ReadBinaryV2(&buf)
		if err != nil {
			return false
		}
		return graphsDeepEqual(g, back)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestV2RoundTripSparseRows exercises the empty-adjacency shapes a
// random dense-ish graph rarely produces: isolated nodes, dangling
// nodes, and a node that only receives edges.
func TestV2RoundTripSparseRows(t *testing.T) {
	g := MustFromEdges(8, [][2]NodeID{{0, 3}, {3, 3}, {5, 0}})
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatalf("WriteBinaryV2: %v", err)
	}
	back, err := ReadBinaryV2(&buf)
	if err != nil {
		t.Fatalf("ReadBinaryV2: %v", err)
	}
	if !graphsDeepEqual(g, back) {
		t.Fatal("sparse-row graph round trip mismatch")
	}
}

// TestV2WriterDeterministic: v2 serialization is byte-identical across
// writes — the CI crawl smoke depends on it (converter output is
// compared with cmp).
func TestV2WriterDeterministic(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(7)), true)
	var a, b bytes.Buffer
	if err := WriteBinaryV2(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryV2(&b, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same graph differ")
	}
}

// TestTextToV2Equivalence pins the converter path: a graph taken
// through the text edge list and then stored as v2 is bit-identical to
// storing the original as v2 directly.
func TestTextToV2Equivalence(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := randomGraph(rand.New(rand.NewSource(11)), weighted)
		var text bytes.Buffer
		if err := WriteEdgeList(&text, g); err != nil {
			t.Fatal(err)
		}
		fromText, err := ReadEdgeList(&text)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := WriteBinaryV2(&a, g); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinaryV2(&b, fromText); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("weighted=%v: text-converted graph serializes differently", weighted)
		}
	}
}

// TestV2NoInSections: a v2 file written without the in-CSR sections
// loads to the same graph (the reader rebuilds the in-adjacency) and
// carries the same format signature (in-sections are derived data).
func TestV2NoInSections(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := randomGraph(rand.New(rand.NewSource(13)), weighted)
		var full, noIn bytes.Buffer
		if err := writeBinaryV2(&full, g, true); err != nil {
			t.Fatal(err)
		}
		if err := writeBinaryV2(&noIn, g, false); err != nil {
			t.Fatal(err)
		}
		if noIn.Len() >= full.Len() {
			t.Fatalf("weighted=%v: no-in file (%d bytes) not smaller than full file (%d bytes)",
				weighted, noIn.Len(), full.Len())
		}
		a, err := ReadBinaryV2(&full)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReadBinaryV2(&noIn)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsDeepEqual(a, b) {
			t.Fatalf("weighted=%v: no-in-section load differs from full load", weighted)
		}
		sa, oka := a.FormatSignature()
		sb, okb := b.FormatSignature()
		if !oka || !okb || sa != sb {
			t.Fatalf("weighted=%v: signatures differ: %x/%v vs %x/%v", weighted, sa, oka, sb, okb)
		}
	}
}

func writeV2File(t *testing.T, g *Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.v2bin")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	return path
}

// TestMmapMatchesReadFull: the mmap load and the copying load of the
// same file are bit-identical down to every internal array, and agree
// on the format signature.
func TestMmapMatchesReadFull(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := randomGraph(rand.New(rand.NewSource(17)), weighted)
		path := writeV2File(t, g)
		copied, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := MmapFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !graphsDeepEqual(copied, mapped) {
			t.Fatalf("weighted=%v: mmap load differs from ReadFull load", weighted)
		}
		sc, okc := copied.FormatSignature()
		sm, okm := mapped.FormatSignature()
		if !okc || !okm || sc != sm {
			t.Fatalf("weighted=%v: signature mismatch: %x/%v vs %x/%v", weighted, sc, okc, sm, okm)
		}
		if err := mapped.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestV2RejectsCorruption: the structured failure modes — wrong magic,
// wrong version, truncations at every boundary, implausible section
// tables, and payload bit flips (checksum) — must all be clean errors,
// on both the streaming and the mapped parser.
func TestV2RejectsCorruption(t *testing.T) {
	g := MustFromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	parse := func(data []byte) error {
		_, errStream := ReadBinaryV2(bytes.NewReader(data))
		_, errMapped := graphFromMapped(data)
		if (errStream == nil) != (errMapped == nil) {
			t.Fatalf("parsers disagree: stream=%v mapped=%v", errStream, errMapped)
		}
		return errStream
	}

	if err := parse(raw); err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"magic only":       []byte(magicV2),
		"truncated header": raw[:v2HeaderSize-4],
		"truncated table":  raw[:v2HeaderSize+8],
		"truncated body":   raw[:len(raw)-v2Align-1],
	}
	mutate := func(pos int, delta byte) []byte {
		m := append([]byte(nil), raw...)
		m[pos] ^= delta
		return m
	}
	cases["bad magic"] = mutate(0, 0xff)
	cases["bad version"] = mutate(8, 0x04)
	cases["zero sections"] = mutate(32, raw[32])        // sectionCount ^= itself → 0
	cases["huge section count"] = mutate(33, 0x7f)      // sectionCount |= high bits
	cases["unknown section kind"] = mutate(40, 0x7f)    // first table entry's kind
	cases["misaligned offset"] = mutate(40+8, 0x01)     // first section offset
	cases["wrong section length"] = mutate(40+16, 0x01) // first section length
	cases["bad checksum field"] = mutate(40+24, 0x01)   // first section crc
	// Flip one byte inside every section's payload: each must trip that
	// section's checksum. (Inter-section padding is NOT checksummed —
	// only payload positions are corrupted here.)
	for _, s := range v2SectionsOf(g, true) {
		cases["flipped payload byte in section "+string(rune('0'+s.kind))] = mutate(int(s.offset), 0x10)
	}
	for name, data := range cases {
		if err := parse(data); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestV2NeverPanics: random single-byte corruptions and truncations of
// a valid v2 image never panic either parser.
func TestV2NeverPanics(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(19)), true)
	var buf bytes.Buffer
	if err := WriteBinaryV2(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 500; trial++ {
		mutated := append([]byte(nil), raw...)
		if rng.Intn(4) == 0 {
			mutated = mutated[:rng.Intn(len(mutated))]
		} else {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: v2 parser panicked: %v", trial, r)
				}
			}()
			if back, err := ReadBinaryV2(bytes.NewReader(mutated)); err == nil {
				if verr := back.validate(); verr != nil {
					t.Fatalf("trial %d: accepted stream graph violates invariants: %v", trial, verr)
				}
			}
			if back, err := graphFromMapped(mutated); err == nil {
				if verr := back.validate(); verr != nil {
					t.Fatalf("trial %d: accepted mapped graph violates invariants: %v", trial, verr)
				}
			}
		}()
	}
}

// TestUseAfterClose: Close nils the aliasing slices before unmapping,
// so a stale access panics (recoverable) instead of faulting; closing
// twice and closing a heap graph are no-ops.
func TestUseAfterClose(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(23)), false)
	path := writeV2File(t, g)
	mapped, err := MmapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("OutNeighbors after Close did not panic")
			}
		}()
		_ = mapped.OutNeighbors(0)
	}()
	if err := mapped.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("heap-graph Close: %v", err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("heap-graph Close must not release storage")
	}
}

// TestFormatSignature: loads of the same file agree (covered more fully
// by the mmap test), different graphs disagree, and in-memory graphs
// have no signature.
func TestFormatSignature(t *testing.T) {
	g1 := MustFromEdges(4, [][2]NodeID{{0, 1}, {1, 2}})
	g2 := MustFromEdges(4, [][2]NodeID{{0, 1}, {1, 3}})
	if _, ok := g1.FormatSignature(); ok {
		t.Fatal("in-memory graph has a format signature")
	}
	var b1, b2 bytes.Buffer
	if err := WriteBinaryV2(&b1, g1); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryV2(&b2, g2); err != nil {
		t.Fatal(err)
	}
	r1, err := ReadBinaryV2(&b1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReadBinaryV2(&b2)
	if err != nil {
		t.Fatal(err)
	}
	s1, ok1 := r1.FormatSignature()
	s2, ok2 := r2.FormatSignature()
	if !ok1 || !ok2 {
		t.Fatal("v2-loaded graph missing signature")
	}
	if s1 == s2 {
		t.Fatal("different graphs share a format signature")
	}
}

// TestSniffFile: format detection by content, independent of filename.
func TestSniffFile(t *testing.T) {
	g := MustFromEdges(3, [][2]NodeID{{0, 1}, {1, 2}})
	dir := t.TempDir()
	writeAs := func(name string, write func(f *os.File) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Deliberately misleading names: sniffing must ignore them.
	v2 := writeAs("graph.txt", func(f *os.File) error { return WriteBinaryV2(f, g) })
	txt := writeAs("graph.bin", func(f *os.File) error { return WriteEdgeList(f, g) })
	for path, want := range map[string]Format{v2: FormatV2, txt: FormatText} {
		got, err := SniffFile(path)
		if err != nil {
			t.Fatalf("SniffFile(%s): %v", path, err)
		}
		if got != want {
			t.Errorf("SniffFile(%s) = %v, want %v", path, got, want)
		}
		back, err := LoadFile(path)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", path, err)
		}
		if !graphsEqual(g, back) {
			t.Errorf("LoadFile(%s): round trip mismatch", path)
		}
	}
}

// TestV2RejectsNonFiniteWeights: a well-formed, correctly checksummed
// v2 image whose weight sections carry a NaN, an infinity or a zero
// must fail to load on both parsers and through MmapFile, instead of
// loading a graph whose transition probabilities are NaN.
func TestV2RejectsNonFiniteWeights(t *testing.T) {
	bad := map[string]func(g *Graph){
		"NaN out-weight":   func(g *Graph) { g.outW[0] = math.NaN() },
		"+Inf in-weight":   func(g *Graph) { g.inW[1] = math.Inf(1) },
		"zero out-weight":  func(g *Graph) { g.outW[2] = 0 },
		"NaN total weight": func(g *Graph) { g.wOut[0] = math.NaN() },
		"zero total":       func(g *Graph) { g.wOut[0] = 0 },
	}
	for name, corrupt := range bad {
		g := randomGraph(rand.New(rand.NewSource(23)), true)
		if g.OutDegree(0) == 0 {
			t.Fatal("test graph needs out-edges on node 0")
		}
		corrupt(g)
		var buf bytes.Buffer
		if err := WriteBinaryV2(&buf, g); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBinaryV2(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("%s: ReadBinaryV2 accepted the image", name)
		}
		path := filepath.Join(t.TempDir(), "g.v2bin")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := MmapFile(path); err == nil {
			_ = m.Close()
			t.Errorf("%s: MmapFile accepted the image", name)
		}
	}
}
