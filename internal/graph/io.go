package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Edge-list text format: one "src dst" or "src dst weight" pair per line,
// '#' starts a comment, blank lines are skipped. Node count is the largest
// id seen plus one unless a "# nodes: N" header raises it.

// WriteEdgeList writes g in the text edge-list format. Lines are
// formatted with strconv appends into one reused buffer — no per-edge
// fmt machinery, no per-edge allocations.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# nodes: %d\n# edges: %d\n", g.NumNodes(), g.NumEdges())
	buf := make([]byte, 0, 64)
	for u := 0; u < g.NumNodes(); u++ {
		adj := g.OutNeighbors(NodeID(u))
		ws := g.OutWeights(NodeID(u))
		for k, v := range adj {
			buf = strconv.AppendUint(buf[:0], uint64(u), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, uint64(v), 10)
			if ws != nil {
				buf = append(buf, ' ')
				buf = strconv.AppendFloat(buf, ws[k], 'g', -1, 64)
			}
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the text edge-list format. The hot path works on
// the scanner's byte view directly: fields are located by index and
// integer ids decoded in place, so a line costs zero allocations (the
// weight column still goes through strconv.ParseFloat, which needs a
// string — only weighted lines pay it).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	b := NewBuilder(0)
	line := 0
	for sc.Scan() {
		line++
		text := trimSpaceBytes(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if text[0] == '#' {
			const hdr = "# nodes:"
			if len(text) >= len(hdr) && string(text[:len(hdr)]) == hdr {
				n, err := strconv.Atoi(strings.TrimSpace(string(text[len(hdr):])))
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("graph: bad node header at line %d", line)
				}
				b.EnsureNode(NodeID(n - 1))
			}
			continue
		}
		f0, f1, f2, nf := splitFields(text)
		if nf != 2 && nf != 3 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst [weight]', got %q", line, text)
		}
		u, err := parseUint32Bytes(f0)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id: %v", line, err)
		}
		v, err := parseUint32Bytes(f1)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id: %v", line, err)
		}
		if nf == 3 {
			w, err := strconv.ParseFloat(string(f2), 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", line, err)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: not finite", line, f2)
			}
			b.AddWeightedEdge(NodeID(u), NodeID(v), w)
		} else {
			b.AddEdge(NodeID(u), NodeID(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' || c == '\f'
}

// trimSpaceBytes is bytes.TrimSpace restricted to ASCII whitespace —
// all this format ever produces — without the unicode fallback.
func trimSpaceBytes(b []byte) []byte {
	lo, hi := 0, len(b)
	for lo < hi && isSpaceByte(b[lo]) {
		lo++
	}
	for hi > lo && isSpaceByte(b[hi-1]) {
		hi--
	}
	return b[lo:hi]
}

// splitFields locates up to three whitespace-separated fields of a
// trimmed line by index — the strings.Fields shape without the []string
// allocation. nf counts all fields present (4 means "too many").
func splitFields(b []byte) (f0, f1, f2 []byte, nf int) {
	i := 0
	next := func() []byte {
		for i < len(b) && isSpaceByte(b[i]) {
			i++
		}
		if i == len(b) {
			return nil
		}
		start := i
		for i < len(b) && !isSpaceByte(b[i]) {
			i++
		}
		return b[start:i]
	}
	f0 = next()
	if f0 == nil {
		return nil, nil, nil, 0
	}
	f1 = next()
	if f1 == nil {
		return f0, nil, nil, 1
	}
	f2 = next()
	if f2 == nil {
		return f0, f1, nil, 2
	}
	if next() != nil {
		return f0, f1, f2, 4
	}
	return f0, f1, f2, 3
}

// parseUint32Bytes decodes an unsigned decimal that fits a NodeID,
// without converting the bytes to a string.
func parseUint32Bytes(b []byte) (uint32, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty number")
	}
	var x uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid decimal %q", b)
		}
		x = x*10 + uint64(c-'0')
		if x > math.MaxUint32 {
			return 0, fmt.Errorf("value %q overflows uint32", b)
		}
	}
	return uint32(x), nil
}

// Binary format v1: a fixed magic, a version byte, node and edge counts,
// then the out-CSR as varints (offsets delta-coded, adjacency delta-coded
// within each node). The in-CSR is rebuilt on load. Weighted graphs append
// the weight array as raw little-endian float64s. Format v2 (format2.go)
// supersedes it for anything performance-sensitive; v1 stays as the
// compact interchange format and for old files.

const binaryMagic = "APXGRAPH"

// floatChunk is the per-call buffer of the chunked float codec: 512
// float64s, 4 KiB on the stack, no heap.
const floatChunk = 512

// writeFloats encodes a float64 slice as raw little-endian bytes in
// fixed-size chunks — the explicit form of what reflection-based
// binary.Write did one value (and one interface dispatch) at a time.
func writeFloats(w io.Writer, vals []float64) error {
	var buf [floatChunk * 8]byte
	for len(vals) > 0 {
		c := len(vals)
		if c > floatChunk {
			c = floatChunk
		}
		encodeFloat64s(buf[:c*8], vals[:c])
		if _, err := w.Write(buf[:c*8]); err != nil {
			return err
		}
		vals = vals[c:]
	}
	return nil
}

// readFloats fills a float64 slice from raw little-endian bytes in
// fixed-size chunks.
func readFloats(r io.Reader, vals []float64) error {
	var buf [floatChunk * 8]byte
	for len(vals) > 0 {
		c := len(vals)
		if c > floatChunk {
			c = floatChunk
		}
		if _, err := io.ReadFull(r, buf[:c*8]); err != nil {
			return err
		}
		decodeFloat64s(vals[:c], buf[:c*8])
		vals = vals[c:]
	}
	return nil
}

// encodeFloat64s writes vals as little-endian bytes into dst
// (len(dst) == 8*len(vals)). The byte shifts are spelled out (rather
// than calling binary.LittleEndian) so the loop stays transitively
// pure; the compiler recognizes the idiom and emits a single store.
//
//arlint:hot
func encodeFloat64s(dst []byte, vals []float64) {
	for i, v := range vals {
		b := math.Float64bits(v)
		d := dst[i*8 : i*8+8 : i*8+8]
		d[0] = byte(b)
		d[1] = byte(b >> 8)
		d[2] = byte(b >> 16)
		d[3] = byte(b >> 24)
		d[4] = byte(b >> 32)
		d[5] = byte(b >> 40)
		d[6] = byte(b >> 48)
		d[7] = byte(b >> 56)
	}
}

// decodeFloat64s fills vals from little-endian bytes in src
// (len(src) == 8*len(vals)); see encodeFloat64s for the spelled-out
// little-endian idiom.
//
//arlint:hot
func decodeFloat64s(vals []float64, src []byte) {
	for i := range vals {
		s := src[i*8 : i*8+8 : i*8+8]
		b := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		vals[i] = math.Float64frombits(b)
	}
}

// WriteBinary writes g in the compact v1 binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	version := byte(1)
	flags := byte(0)
	if g.Weighted() {
		flags |= 1
	}
	_ = bw.WriteByte(version) //arlint:allow errflow bufio errors are sticky; the final Flush reports them
	_ = bw.WriteByte(flags)   //arlint:allow errflow bufio errors are sticky; the final Flush reports them
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(x uint64) {
		n := binary.PutUvarint(buf[:], x)
		_, _ = bw.Write(buf[:n]) //arlint:allow errflow bufio errors are sticky; the final Flush reports them
	}
	putUvarint(uint64(g.NumNodes()))
	putUvarint(uint64(g.NumEdges()))
	for u := 0; u < g.NumNodes(); u++ {
		adj := g.OutNeighbors(NodeID(u))
		putUvarint(uint64(len(adj)))
		prev := uint64(0)
		for k, v := range adj {
			if k == 0 {
				putUvarint(uint64(v))
			} else {
				putUvarint(uint64(v) - prev) // adjacency is sorted strictly ascending after dedup
			}
			prev = uint64(v)
		}
	}
	if g.Weighted() {
		if err := writeFloats(bw, g.outW); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the compact v1 binary format and validates the result.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	version, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if version != 1 {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	weighted := flags&1 != 0
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	m64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n64 == 0 || n64 > 1<<31 || m64 > 1<<40 {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	g := &Graph{n: n}
	g.outOff = make([]int64, n+1)
	g.outAdj = make([]NodeID, 0, m)
	for u := 0; u < n; u++ {
		deg, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("graph: node %d degree: %w", u, err)
		}
		prev := uint64(0)
		for k := uint64(0); k < deg; k++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("graph: node %d adjacency: %w", u, err)
			}
			v := d
			if k > 0 {
				v = prev + d
			}
			if v >= n64 {
				return nil, fmt.Errorf("graph: node %d edge target %d out of range", u, v)
			}
			g.outAdj = append(g.outAdj, NodeID(v))
			prev = v
		}
		g.outOff[u+1] = g.outOff[u] + int64(deg)
	}
	if len(g.outAdj) != m {
		return nil, fmt.Errorf("graph: edge count mismatch: header %d, body %d", m, len(g.outAdj))
	}
	if weighted {
		g.outW = make([]float64, m)
		if err := readFloats(br, g.outW); err != nil {
			return nil, fmt.Errorf("graph: weights: %w", err)
		}
		g.wOut = make([]float64, n)
		for u := 0; u < n; u++ {
			for k := g.outOff[u]; k < g.outOff[u+1]; k++ {
				g.wOut[u] += g.outW[k]
			}
		}
	}
	buildIn(g)
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Format identifies one of the on-disk graph formats.
type Format int

const (
	FormatText Format = iota // text edge list
	FormatV1                 // compact varint binary (magic "APXGRAPH")
	FormatV2                 // sectioned zero-copy binary (magic "APXGRF2\0")
)

func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	default:
		return "text"
	}
}

// sniffFormat classifies the first bytes of a graph file. Anything that
// matches neither binary magic is treated as text — the text parser
// produces the intelligible error for genuinely unreadable input.
func sniffFormat(prefix []byte) Format {
	if len(prefix) >= 8 {
		switch string(prefix[:8]) {
		case binaryMagic:
			return FormatV1
		case magicV2:
			return FormatV2
		}
	}
	return FormatText
}

// SniffFile reports the on-disk format of a graph file by its magic
// bytes. Callers deciding between MmapFile and LoadFile (only v2 can be
// mapped) sniff first.
func SniffFile(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return FormatText, err
	}
	defer f.Close()
	var prefix [8]byte
	n, err := io.ReadFull(f, prefix[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return FormatText, err
	}
	// A short read just means a file smaller than any binary magic —
	// sniffFormat classifies whatever bytes exist as text.
	return sniffFormat(prefix[:n]), nil
}

// SaveFile writes g to path, choosing the format by extension: ".txt"
// or ".edges" selects the text edge list, ".v1" the compact v1 binary,
// everything else the zero-copy v2 binary. (Extensions only matter on
// the write side; LoadFile sniffs magic bytes.)
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch {
	case strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".edges"):
		err = WriteEdgeList(f, g)
	case strings.HasSuffix(path, ".v1"):
		err = WriteBinary(f, g)
	default:
		err = WriteBinaryV2(f, g)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a graph in any supported format, detected by content
// (v1 magic, v2 magic, else text) rather than filename — renamed or
// extension-less files load correctly. For the zero-copy load of a v2
// file use MmapFile instead.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	prefix, err := br.Peek(8)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	switch sniffFormat(prefix) {
	case FormatV1:
		return ReadBinary(br)
	case FormatV2:
		return ReadBinaryV2(br)
	default:
		return ReadEdgeList(br)
	}
}
