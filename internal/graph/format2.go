package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"
)

// Binary format v2: a sectioned, 64-byte-aligned layout whose payload IS
// the in-memory representation. It stores every array a Graph holds at
// runtime — outOff, outAdj, the materialized inOff/inAdj, and the
// weight arrays when present — as raw little-endian machine words at
// aligned file offsets. Loading is therefore io.ReadFull into
// preallocated slices (no per-edge decode loop, no append growth, no
// in-CSR rebuild), and MmapFile goes one step further: the sections are
// aliased straight out of an mmap'd region, so the CSR costs zero heap
// regardless of graph size.
//
// Layout (all integers little-endian):
//
//	[0, 8)    magic "APXGRF2\0"
//	[8, 40)   fixed header: version u32, flags u32, numNodes i64,
//	          numEdges i64, sectionCount u32, reserved u32
//	[40, ...) section table: sectionCount × 32-byte entries
//	          {kind u32, reserved u32, offset i64, length i64, crc u64}
//	...       payload sections, each at a 64-byte-aligned offset, in
//	          table order, zero-padded between sections
//
// Section kinds (lengths in bytes; n = numNodes, m = numEdges):
//
//	1 outOff  (n+1)·8   int64 CSR offsets
//	2 outAdj  m·4       uint32 edge targets
//	3 inOff   (n+1)·8   int64 in-CSR offsets
//	4 inAdj   m·4       uint32 edge sources
//	5 outW    m·8       float64 out-edge weights (weighted only)
//	6 inW     m·8       float64 in-edge weights (weighted only)
//	7 wOut    n·8       float64 per-node total out-weight (weighted only)
//
// The in-sections are optional: a writer that has only the out-CSR may
// omit them, and the reader rebuilds the in-adjacency with the parallel
// build (bit-identical to the sequential one). Each crc is CRC-32C
// (Castagnoli) over the section's payload bytes, widened to u64;
// readers verify it before trusting a section, and the per-section
// checksums double as the graph's format signature (FormatSignature) so
// caches keyed on graph identity never walk the adjacency a second
// time.

const (
	magicV2 = "APXGRF2\x00"

	v2Version      = uint32(2)
	v2FlagWeighted = uint32(1)

	v2HeaderSize  = 40 // magic + fixed header
	v2SectionSize = 32 // one section-table entry
	v2Align       = 64

	secOutOff = uint32(1)
	secOutAdj = uint32(2)
	secInOff  = uint32(3)
	secInAdj  = uint32(4)
	secOutW   = uint32(5)
	secInW    = uint32(6)
	secWOut   = uint32(7)

	maxV2Sections = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether the running machine stores integers
// little-endian, which is what gates the zero-copy paths: on LE hosts
// the file payload and the in-memory slices are the same bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// v2Section describes one payload section during writing or parsing.
type v2Section struct {
	kind   uint32
	offset int64
	length int64 // payload bytes
	crc    uint64
}

// v2SectionsOf lists the sections a graph serializes to, in file order.
// withIn controls whether the materialized in-CSR is included; writers
// that stream a graph whose in-adjacency was never built omit it and
// let the reader's parallel build recreate it.
func v2SectionsOf(g *Graph, withIn bool) []v2Section {
	n, m := int64(g.n), int64(len(g.outAdj))
	secs := []v2Section{
		{kind: secOutOff, length: (n + 1) * 8},
		{kind: secOutAdj, length: m * 4},
	}
	if withIn {
		secs = append(secs,
			v2Section{kind: secInOff, length: (n + 1) * 8},
			v2Section{kind: secInAdj, length: m * 4})
	}
	if g.outW != nil {
		secs = append(secs, v2Section{kind: secOutW, length: m * 8})
		if withIn {
			secs = append(secs, v2Section{kind: secInW, length: m * 8})
		}
		secs = append(secs, v2Section{kind: secWOut, length: n * 8})
	}
	off := alignUp(v2HeaderSize + int64(len(secs))*v2SectionSize)
	for i := range secs {
		secs[i].offset = off
		off = alignUp(off + secs[i].length)
	}
	return secs
}

func alignUp(off int64) int64 {
	return (off + v2Align - 1) &^ (v2Align - 1)
}

// sectionPayload returns the graph array backing a section kind.
// Exactly one of the three returns is non-nil.
func (g *Graph) sectionPayload(kind uint32) (i64 []int64, u32 []uint32, f64 []float64) {
	switch kind {
	case secOutOff:
		return g.outOff, nil, nil
	case secOutAdj:
		return nil, g.outAdj, nil
	case secInOff:
		return g.inOff, nil, nil
	case secInAdj:
		return nil, g.inAdj, nil
	case secOutW:
		return nil, nil, g.outW
	case secInW:
		return nil, nil, g.inW
	case secWOut:
		return nil, nil, g.wOut
	}
	// Unreachable: kinds come from v2SectionsOf, which emits only the
	// cases above.
	panic("graph: unknown v2 section kind") //arlint:allow panicfree internal invariant, not an input error
}

// WriteBinaryV2 writes g in binary format v2 (with the in-CSR sections
// included, so readers and MmapFile never rebuild anything). The output
// is deterministic: the same graph always serializes to the same bytes.
func WriteBinaryV2(w io.Writer, g *Graph) error {
	return writeBinaryV2(w, g, true)
}

func writeBinaryV2(w io.Writer, g *Graph, withIn bool) error {
	secs := v2SectionsOf(g, withIn)
	for i := range secs {
		secs[i].crc = sectionCRC(g, secs[i].kind)
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [v2HeaderSize]byte
	copy(hdr[:8], magicV2)
	le := binary.LittleEndian
	le.PutUint32(hdr[8:], v2Version)
	flags := uint32(0)
	if g.outW != nil {
		flags |= v2FlagWeighted
	}
	le.PutUint32(hdr[12:], flags)
	le.PutUint64(hdr[16:], uint64(g.n))
	le.PutUint64(hdr[24:], uint64(len(g.outAdj)))
	le.PutUint32(hdr[32:], uint32(len(secs)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var ent [v2SectionSize]byte
	for _, s := range secs {
		le.PutUint32(ent[0:], s.kind)
		le.PutUint32(ent[4:], 0)
		le.PutUint64(ent[8:], uint64(s.offset))
		le.PutUint64(ent[16:], uint64(s.length))
		le.PutUint64(ent[24:], s.crc)
		if _, err := bw.Write(ent[:]); err != nil {
			return err
		}
	}
	written := v2HeaderSize + int64(len(secs))*v2SectionSize
	for _, s := range secs {
		if err := writePad(bw, s.offset-written); err != nil {
			return err
		}
		if err := writeSectionPayload(bw, g, s.kind); err != nil {
			return err
		}
		written = s.offset + s.length
	}
	// Trailing pad so the file length is a multiple of the alignment —
	// harmless for readers, and it keeps concatenation-style tooling
	// (dd, split) on aligned boundaries.
	if err := writePad(bw, alignUp(written)-written); err != nil {
		return err
	}
	return bw.Flush()
}

var zeroPad [v2Align]byte

func writePad(w io.Writer, pad int64) error {
	for pad > 0 {
		c := pad
		if c > v2Align {
			c = v2Align
		}
		if _, err := w.Write(zeroPad[:c]); err != nil {
			return err
		}
		pad -= c
	}
	return nil
}

// sectionCRC checksums a section's payload. On little-endian hosts this
// runs directly over the slice memory; otherwise over the encoded form.
func sectionCRC(g *Graph, kind uint32) uint64 {
	i64, u32, f64 := g.sectionPayload(kind)
	if hostLittleEndian {
		var b []byte
		switch {
		case i64 != nil:
			b = int64Bytes(i64)
		case u32 != nil:
			b = uint32Bytes(u32)
		default:
			b = float64Bytes(f64)
		}
		return uint64(crc32.Checksum(b, castagnoli))
	}
	return uint64(crc32.Checksum(encodePortable(i64, u32, f64), castagnoli))
}

// writeSectionPayload streams one section's payload. Little-endian
// hosts write the slice memory verbatim (the zero-copy write half of
// the format's contract); big-endian hosts encode explicitly.
func writeSectionPayload(w io.Writer, g *Graph, kind uint32) error {
	i64, u32, f64 := g.sectionPayload(kind)
	if hostLittleEndian {
		var b []byte
		switch {
		case i64 != nil:
			b = int64Bytes(i64)
		case u32 != nil:
			b = uint32Bytes(u32)
		default:
			b = float64Bytes(f64)
		}
		_, err := w.Write(b)
		return err
	}
	_, err := w.Write(encodePortable(i64, u32, f64))
	return err
}

// encodePortable little-endian-encodes a section on hosts whose memory
// layout cannot be written verbatim. Only ever runs on big-endian
// machines, so it favors clarity over speed.
func encodePortable(i64 []int64, u32 []uint32, f64 []float64) []byte {
	le := binary.LittleEndian
	switch {
	case i64 != nil:
		b := make([]byte, len(i64)*8)
		for i, v := range i64 {
			le.PutUint64(b[i*8:], uint64(v))
		}
		return b
	case u32 != nil:
		b := make([]byte, len(u32)*4)
		for i, v := range u32 {
			le.PutUint32(b[i*4:], v)
		}
		return b
	default:
		b := make([]byte, len(f64)*8)
		for i, v := range f64 {
			le.PutUint64(b[i*8:], math.Float64bits(v))
		}
		return b
	}
}

// int64Bytes / uint32Bytes / float64Bytes reinterpret a typed slice as
// its backing bytes (little-endian hosts only; the callers gate on
// hostLittleEndian). The views alias the slice memory — callers must
// not let them outlive it.
func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

func uint32Bytes(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func float64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// v2Header is the parsed fixed header + section table.
type v2Header struct {
	flags    uint32
	n        int
	m        int
	sections []v2Section
}

// parseV2Header decodes and sanity-checks the fixed header and section
// table from hdr (the first v2HeaderSize bytes) and table (the raw
// section-table bytes).
func parseV2Header(hdr, table []byte) (*v2Header, error) {
	le := binary.LittleEndian
	if string(hdr[:8]) != magicV2 {
		return nil, fmt.Errorf("graph: bad v2 magic %q", hdr[:8])
	}
	if v := le.Uint32(hdr[8:]); v != v2Version {
		return nil, fmt.Errorf("graph: unsupported v2 version %d", v)
	}
	flags := le.Uint32(hdr[12:])
	n64 := le.Uint64(hdr[16:])
	m64 := le.Uint64(hdr[24:])
	nsec := le.Uint32(hdr[32:])
	if n64 == 0 || n64 > 1<<31 || m64 > 1<<40 {
		return nil, fmt.Errorf("graph: implausible v2 sizes n=%d m=%d", n64, m64)
	}
	if nsec == 0 || nsec > maxV2Sections {
		return nil, fmt.Errorf("graph: implausible v2 section count %d", nsec)
	}
	if len(table) < int(nsec)*v2SectionSize {
		return nil, fmt.Errorf("graph: truncated v2 section table")
	}
	h := &v2Header{flags: flags, n: int(n64), m: int(m64)}
	prevEnd := v2HeaderSize + int64(nsec)*v2SectionSize
	seen := make(map[uint32]bool, nsec)
	for i := uint32(0); i < nsec; i++ {
		ent := table[i*v2SectionSize:]
		s := v2Section{
			kind:   le.Uint32(ent[0:]),
			offset: int64(le.Uint64(ent[8:])),
			length: int64(le.Uint64(ent[16:])),
			crc:    le.Uint64(ent[24:]),
		}
		if s.kind < secOutOff || s.kind > secWOut {
			return nil, fmt.Errorf("graph: unknown v2 section kind %d", s.kind)
		}
		if seen[s.kind] {
			return nil, fmt.Errorf("graph: duplicate v2 section kind %d", s.kind)
		}
		seen[s.kind] = true
		if want := sectionLength(s.kind, h.n, h.m); s.length != want {
			return nil, fmt.Errorf("graph: v2 section %d length %d, want %d", s.kind, s.length, want)
		}
		// The offset cap (far above any legal file, n ≤ 2³¹ and m ≤ 2⁴⁰)
		// keeps offset+length arithmetic overflow-free on hostile input.
		if s.offset < prevEnd || s.offset > 1<<56 || s.offset%v2Align != 0 {
			return nil, fmt.Errorf("graph: v2 section %d misplaced at offset %d", s.kind, s.offset)
		}
		prevEnd = s.offset + s.length
		h.sections = append(h.sections, s)
	}
	weighted := flags&v2FlagWeighted != 0
	if !seen[secOutOff] || !seen[secOutAdj] {
		return nil, fmt.Errorf("graph: v2 file missing out-CSR sections")
	}
	if seen[secInOff] != seen[secInAdj] {
		return nil, fmt.Errorf("graph: v2 file has only half an in-CSR")
	}
	if weighted && !seen[secOutW] {
		return nil, fmt.Errorf("graph: weighted v2 file missing out-weight section")
	}
	if !weighted && (seen[secOutW] || seen[secInW] || seen[secWOut]) {
		return nil, fmt.Errorf("graph: unweighted v2 file carries weight sections")
	}
	if seen[secInW] && !seen[secInAdj] {
		return nil, fmt.Errorf("graph: v2 in-weight section without in-CSR")
	}
	if weighted && seen[secInAdj] != seen[secInW] {
		return nil, fmt.Errorf("graph: weighted v2 in-CSR without in-weight section")
	}
	return h, nil
}

func sectionLength(kind uint32, n, m int) int64 {
	switch kind {
	case secOutOff, secInOff:
		return int64(n+1) * 8
	case secOutAdj, secInAdj:
		return int64(m) * 4
	case secOutW, secInW:
		return int64(m) * 8
	case secWOut:
		return int64(n) * 8
	}
	return -1
}

// formatSignature folds the identity-bearing parts of a v2 header — the
// node and edge counts, the weighted flag, and the out-side section
// checksums — into one 64-bit FNV-1a value. In-CSR sections are
// excluded so a file written with and without them signs identically
// (they are derived data). Both the ReadFull and the mmap loaders stamp
// it on the Graph, so signature consumers (the serving daemon's disk
// cache) never re-walk the adjacency.
func (h *v2Header) formatSignature() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	sig := uint64(fnvOffset)
	mix := func(x uint64) {
		sig = (sig ^ x) * fnvPrime
	}
	mix(uint64(h.n))
	mix(uint64(h.m))
	mix(uint64(h.flags & v2FlagWeighted))
	for _, s := range h.sections {
		switch s.kind {
		case secOutOff, secOutAdj, secOutW:
			mix(uint64(s.kind))
			mix(s.crc)
		}
	}
	return sig
}

// ReadBinaryV2 parses binary format v2 from a stream: every section is
// read with io.ReadFull into an exactly-sized slice (on little-endian
// hosts straight into the slice memory), checksums are verified, and a
// file without in-CSR sections gets its in-adjacency rebuilt by the
// parallel build. The result is validated before it is returned.
func ReadBinaryV2(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [v2HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading v2 header: %w", err)
	}
	if string(hdr[:8]) != magicV2 {
		return nil, fmt.Errorf("graph: bad v2 magic %q", hdr[:8])
	}
	nsec := binary.LittleEndian.Uint32(hdr[32:])
	if nsec == 0 || nsec > maxV2Sections {
		return nil, fmt.Errorf("graph: implausible v2 section count %d", nsec)
	}
	table := make([]byte, int(nsec)*v2SectionSize)
	if _, err := io.ReadFull(br, table); err != nil {
		return nil, fmt.Errorf("graph: reading v2 section table: %w", err)
	}
	h, err := parseV2Header(hdr[:], table)
	if err != nil {
		return nil, err
	}
	g := &Graph{n: h.n}
	pos := v2HeaderSize + int64(nsec)*v2SectionSize
	for _, s := range h.sections {
		if err := discard(br, s.offset-pos); err != nil {
			return nil, fmt.Errorf("graph: v2 section %d padding: %w", s.kind, err)
		}
		if err := readSection(br, g, s); err != nil {
			return nil, err
		}
		pos = s.offset + s.length
	}
	return finishV2(g, h)
}

// finishV2 derives whatever a v2 image did not carry (the in-CSR when
// the writer omitted it), validates, and stamps the format signature.
func finishV2(g *Graph, h *v2Header) (*Graph, error) {
	if g.inOff == nil {
		buildIn(g)
	}
	if g.outW != nil && g.wOut == nil {
		computeWOut(g)
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	g.fileSig, g.hasSig = h.formatSignature(), true
	return g, nil
}

// computeWOut fills the per-node total out-weight from the out-weights.
func computeWOut(g *Graph) {
	g.wOut = make([]float64, g.n)
	for u := 0; u < g.n; u++ {
		s := 0.0
		for k := g.outOff[u]; k < g.outOff[u+1]; k++ {
			s += g.outW[k]
		}
		g.wOut[u] = s
	}
}

func discard(br *bufio.Reader, pad int64) error {
	if pad < 0 {
		return fmt.Errorf("graph: overlapping sections")
	}
	_, err := br.Discard(int(pad))
	return err
}

// readSection reads one section payload into a freshly allocated,
// exactly-sized slice attached to g, verifying its checksum. On
// little-endian hosts the file bytes land directly in the slice memory;
// big-endian hosts read into a scratch buffer and decode.
func readSection(br *bufio.Reader, g *Graph, s v2Section) error {
	i64, u32, f64 := allocSection(g, s.kind)
	var payload []byte
	if hostLittleEndian {
		switch {
		case i64 != nil:
			payload = int64Bytes(i64)
		case u32 != nil:
			payload = uint32Bytes(u32)
		default:
			payload = float64Bytes(f64)
		}
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("graph: v2 section %d: %w", s.kind, err)
		}
	} else {
		payload = make([]byte, s.length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("graph: v2 section %d: %w", s.kind, err)
		}
		decodePortable(payload, i64, u32, f64)
	}
	if crc := uint64(crc32.Checksum(payload, castagnoli)); crc != s.crc {
		return fmt.Errorf("graph: v2 section %d checksum mismatch", s.kind)
	}
	return nil
}

// allocSection allocates the exactly-sized destination slice for a
// section and attaches it to g, returning the typed view to fill.
func allocSection(g *Graph, kind uint32) (i64 []int64, u32 []uint32, f64 []float64) {
	n, m := g.n, 0
	switch kind {
	case secOutOff:
		g.outOff = make([]int64, n+1)
		return g.outOff, nil, nil
	case secInOff:
		g.inOff = make([]int64, n+1)
		return g.inOff, nil, nil
	case secOutAdj:
		m = sectionCap(g)
		g.outAdj = make([]NodeID, m)
		return nil, g.outAdj, nil
	case secInAdj:
		m = sectionCap(g)
		g.inAdj = make([]NodeID, m)
		return nil, g.inAdj, nil
	case secOutW:
		m = sectionCap(g)
		g.outW = make([]float64, m)
		return nil, nil, g.outW
	case secInW:
		m = sectionCap(g)
		g.inW = make([]float64, m)
		return nil, nil, g.inW
	case secWOut:
		g.wOut = make([]float64, n)
		return nil, nil, g.wOut
	}
	// Unreachable: parseV2Header already rejected unknown section kinds.
	panic("graph: unknown v2 section kind") //arlint:allow panicfree internal invariant, not an input error
}

// sectionCap returns the edge count the out-CSR header promised; the
// out-offset section always precedes the adjacency sections (ascending
// offsets + table order produced by v2SectionsOf), so outOff is set.
func sectionCap(g *Graph) int {
	if g.outOff != nil {
		return int(g.outOff[g.n])
	}
	return 0
}

// decodePortable is the big-endian-host inverse of encodePortable.
func decodePortable(b []byte, i64 []int64, u32 []uint32, f64 []float64) {
	le := binary.LittleEndian
	switch {
	case i64 != nil:
		for i := range i64 {
			i64[i] = int64(le.Uint64(b[i*8:]))
		}
	case u32 != nil:
		for i := range u32 {
			u32[i] = le.Uint32(b[i*4:])
		}
	default:
		for i := range f64 {
			f64[i] = math.Float64frombits(le.Uint64(b[i*8:]))
		}
	}
}

// graphFromMapped assembles a Graph over an mmap'd v2 image: sections
// are aliased straight out of data (zero heap for the CSR), checksums
// and structural invariants are verified — one sequential page-in, far
// cheaper than any decode — and missing derived sections (in-CSR,
// wOut) are built on the heap. The caller owns data's lifetime and
// attaches it to Graph.mapped on success.
func graphFromMapped(data []byte) (*Graph, error) {
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("graph: v2 image too short (%d bytes)", len(data))
	}
	if string(data[:8]) != magicV2 {
		return nil, fmt.Errorf("graph: bad v2 magic %q", data[:8])
	}
	nsec := binary.LittleEndian.Uint32(data[32:])
	if nsec == 0 || nsec > maxV2Sections {
		return nil, fmt.Errorf("graph: implausible v2 section count %d", nsec)
	}
	if int64(len(data)) < v2HeaderSize+int64(nsec)*v2SectionSize {
		return nil, fmt.Errorf("graph: truncated v2 section table")
	}
	h, err := parseV2Header(data[:v2HeaderSize], data[v2HeaderSize:])
	if err != nil {
		return nil, err
	}
	g := &Graph{n: h.n}
	for _, s := range h.sections {
		if s.offset+s.length > int64(len(data)) {
			return nil, fmt.Errorf("graph: v2 section %d exceeds file size", s.kind)
		}
		payload := data[s.offset : s.offset+s.length]
		if crc := uint64(crc32.Checksum(payload, castagnoli)); crc != s.crc {
			return nil, fmt.Errorf("graph: v2 section %d checksum mismatch", s.kind)
		}
		aliasSection(g, s.kind, payload)
	}
	return finishV2(g, h)
}

// aliasSection points a Graph array directly at a section's mapped
// payload bytes. Little-endian hosts only (MmapFile falls back to the
// copying reader elsewhere).
func aliasSection(g *Graph, kind uint32, payload []byte) {
	switch kind {
	case secOutOff:
		g.outOff = aliasInt64(payload)
	case secInOff:
		g.inOff = aliasInt64(payload)
	case secOutAdj:
		g.outAdj = aliasUint32(payload)
	case secInAdj:
		g.inAdj = aliasUint32(payload)
	case secOutW:
		g.outW = aliasFloat64(payload)
	case secInW:
		g.inW = aliasFloat64(payload)
	case secWOut:
		g.wOut = aliasFloat64(payload)
	}
}

func aliasInt64(b []byte) []int64 {
	if len(b) == 0 {
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func aliasUint32(b []byte) []uint32 {
	if len(b) == 0 {
		return []uint32{}
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func aliasFloat64(b []byte) []float64 {
	if len(b) == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// readV2Fallback is the copying load path behind MmapFile on platforms
// (or hosts) where aliasing a mapping is impossible: plain ReadBinaryV2
// over the opened file.
func readV2Fallback(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := ReadBinaryV2(f)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	return g, nil
}

// FormatSignature returns the graph's stored format signature and
// whether one exists. Graphs loaded from a v2 file (ReadBinaryV2 or
// MmapFile) carry a signature derived from the file's section
// checksums; graphs built in memory or loaded from text do not, and
// callers fall back to walking the adjacency. Two loads of the same v2
// file — mmap'd or copied — always agree.
func (g *Graph) FormatSignature() (uint64, bool) {
	return g.fileSig, g.hasSig
}

// Close releases the resources behind a memory-mapped graph: every
// slice aliasing the mapping is nilled FIRST (so a stale use panics
// with an index error instead of faulting on unmapped pages) and the
// mapping is then unmapped. Closing a heap-backed graph is a no-op, as
// is closing twice — callers can unconditionally defer Close.
//
// Lifetime rule: every slice obtained from the graph — OutNeighbors
// rows, InCSR/OutCSR, and any kernel.Snapshot/PushSnapshot that aliased
// them — dies with Close. Release snapshots and finish sweeps before
// closing the graph they were built from.
func (g *Graph) Close() error {
	m := g.mapped
	if m == nil {
		return nil
	}
	g.mapped = nil
	g.outOff, g.inOff = nil, nil
	g.outAdj, g.inAdj = nil, nil
	g.outW, g.inW, g.wOut = nil, nil, nil
	return unmapMem(m)
}
