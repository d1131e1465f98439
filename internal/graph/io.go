package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Edge-list text format: one "src dst" or "src dst weight" pair per line,
// '#' starts a comment, blank lines are skipped. Node count is the largest
// id seen plus one unless a "# nodes: N" header raises it. N is capped at
// 2³¹, the cap v2 enforces, so every text graph that loads can be
// written as v2: a header above it and an edge id at or above it are
// errors. N must also be backed by the input: a graph costs at least 8
// bytes of offsets per node, so N above max(2²⁰, the bytes read) is an
// error too, and a few bytes of text can never ask for gigabytes.

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
	line, read := 0, 0
	for sc.Scan() {
		line++
		read += len(sc.Bytes()) + 1
		text := trimSpaceBytes(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if text[0] == '#' {
			const hdr = "# nodes:"
			if len(text) >= len(hdr) && string(text[:len(hdr)]) == hdr {
				n, err := strconv.Atoi(strings.TrimSpace(string(text[len(hdr):])))
				if err != nil || n <= 0 || n > 1<<31 {
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
		if max(u, v) >= 1<<31 {
			return nil, fmt.Errorf("graph: line %d: node id %d past the 2³¹ node cap", line, max(u, v))
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
	if n := b.NumNodes(); n > max(1<<20, read) {
		return nil, fmt.Errorf("graph: %d nodes from %d bytes of edge list: above max(2²⁰, bytes read)", n, read)
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

// magicV1 opens files of the retired v1 binary format. LoadFile
// recognizes it only to reject it by name: sniffed as text, a v1 file
// would fail with a confusing parse error on line 1.
const magicV1 = "APXGRAPH"

// Format identifies one of the on-disk graph formats.
type Format int

const (
	FormatText Format = iota // text edge list
	FormatV2                 // sectioned zero-copy binary (magic "APXGRF2\0")
)

func (f Format) String() string {
	if f == FormatV2 {
		return "v2"
	}
	return "text"
}

// sniffFormat classifies the first bytes of a graph file. Anything that
// does not open with the v2 magic is treated as text — the text parser
// produces the intelligible error for genuinely unreadable input.
func sniffFormat(prefix []byte) Format {
	if string(prefix) == magicV2 {
		return FormatV2
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
// or ".edges" selects the text edge list, everything else the zero-copy
// v2 binary. (Extensions only matter on the write side; LoadFile sniffs
// magic bytes.)
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".edges") {
		err = WriteEdgeList(f, g)
	} else {
		err = WriteBinaryV2(f, g)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a graph in any supported format, detected by content
// (v2 magic, else text) rather than filename — renamed or
// extension-less files load correctly. A file in the retired v1 binary
// format is an error that names it. For the zero-copy load of a v2 file
// use MmapFile instead.
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
	if string(prefix) == magicV1 {
		return nil, fmt.Errorf("graph: %s is in the retired v1 binary format; only text and v2 load", path)
	}
	if sniffFormat(prefix) == FormatV2 {
		return ReadBinaryV2(br)
	}
	return ReadEdgeList(br)
}
