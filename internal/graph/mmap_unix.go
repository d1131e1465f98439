//go:build unix

package graph

import (
	"fmt"
	"os"
	"syscall"
)

// MmapFile opens a v2 binary graph file with the CSR sections aliased
// directly out of a read-only memory mapping: no decode, no copies, no
// heap growth proportional to the graph — resident memory is whatever
// pages the kernel faults in as sections are touched. Checksums and
// structural invariants are still fully verified (one sequential
// page-in of the file, the cheapest possible first touch).
//
// The returned graph owns the mapping; call Close when done. Every
// slice handed out by the graph — adjacency rows, InCSR/OutCSR, kernel
// snapshots that alias them — dies with Close.
//
// Only v2 files can be mapped (a text file is not an image of the
// arrays); callers holding a file of unknown format should sniff it
// first (SniffFile) or use LoadFile. On big-endian hosts the mapping
// cannot be aliased and MmapFile transparently falls back to the
// copying reader.
func MmapFile(path string) (*Graph, error) {
	if !hostLittleEndian {
		return readV2Fallback(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < v2HeaderSize {
		return nil, fmt.Errorf("graph: %s: too short for a v2 graph (%d bytes)", path, size)
	}
	if size > int64(^uint(0)>>1) {
		return nil, fmt.Errorf("graph: %s: file too large to map (%d bytes)", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	g, err := graphFromMapped(data)
	if err != nil {
		_ = syscall.Munmap(data) //arlint:allow errflow cleanup on the parse-failure path; the parse error is the root cause
		return nil, fmt.Errorf("graph: %s: %w", path, err)
	}
	g.mapped = data
	return g, nil
}

func unmapMem(data []byte) error {
	return syscall.Munmap(data)
}
