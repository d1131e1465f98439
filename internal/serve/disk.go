package serve

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pagerank"
	"repro/internal/search"
)

// diskFormat is the layout version of the cache file; any change to the
// gob'd structures below bumps it, and a mismatch discards the file
// (scores are a cache — recomputing beats misreading). Format 2 added
// Sum.
const diskFormat uint32 = 2

// diskFile is the on-disk shape of the score cache. GraphSig binds the
// cached scores to the exact global graph snapshot they were computed
// from: a daemon restarted over a regenerated or updated graph discards
// the file wholesale rather than serving stale ranks (the snapshot
// version ↔ disk cache invalidation rule in DESIGN.md). Sum is
// diskSum(Entries): a file whose entries no longer match it — a flipped
// bit that leaves every score finite and non-negative included — is a
// load error.
type diskFile struct {
	Format   uint32
	GraphSig uint64
	Entries  []diskEntry
	Sum      uint32
}

// diskEntry is one cached subgraph: its canonical ids and the converged
// results per configuration key. Chains and search engines are NOT
// persisted — they are cheap to rebuild lazily relative to the power
// iteration the scores paid for.
type diskEntry struct {
	IDs     []uint32
	Results []diskResult
}

type diskResult struct {
	CfgKey     string
	Scores     []float64
	Lambda     float64
	Iterations int
	Converged  bool
}

// GraphSignature fingerprints a global graph, versioning every cache
// keyed by "scores of a subgraph of THIS graph". Graphs loaded from a
// v2 binary file carry a signature precomputed from the file's section
// checksums — used directly, so an mmap-backed daemon never forces the
// whole adjacency through memory just to fingerprint it. Other graphs
// get FNV-1a over the node count and the full out-adjacency stream.
// (The two schemes hash different inputs: a daemon switching an
// existing graph file to v2 discards its old disk cache once.)
func GraphSignature(g *graph.Graph) uint64 {
	if sig, ok := g.FormatSignature(); ok {
		return sig
	}
	h := uint64(fnvOffset64)
	h = (h ^ uint64(g.NumNodes())) * fnvPrime64
	h = (h ^ uint64(g.NumEdges())) * fnvPrime64
	for u := 0; u < g.NumNodes(); u++ {
		adj := g.OutNeighbors(graph.NodeID(u))
		h = (h ^ uint64(len(adj))) * fnvPrime64
		for _, v := range adj {
			h = (h ^ uint64(v)) * fnvPrime64
		}
	}
	return h
}

// SaveDiskCache writes the current result cache to the configured path
// (atomically, via a temp file + rename) so the next start is warm. It
// is a no-op without a configured path. Only converged results are
// persisted — the cache must never warm-start an answer the live path
// would have refused to serve.
func (s *Server) SaveDiskCache() error {
	if s.diskPath == "" {
		return nil
	}
	df := diskFile{Format: diskFormat, GraphSig: s.sig}
	s.mu.Lock()
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		de := diskEntry{IDs: e.ids}
		for key, res := range e.results {
			if !res.Converged {
				continue
			}
			de.Results = append(de.Results, diskResult{
				CfgKey:     key,
				Scores:     res.Scores,
				Lambda:     res.Lambda,
				Iterations: res.Iterations,
				Converged:  res.Converged,
			})
		}
		if len(de.Results) > 0 {
			df.Entries = append(df.Entries, de)
		}
	}
	s.mu.Unlock()
	// Results within an entry were collected in map order; sort for a
	// deterministic file (the entry order — LRU front to back — already
	// is).
	for i := range df.Entries {
		sortDiskResults(df.Entries[i].Results)
	}
	df.Sum = diskSum(df.Entries)

	tmp, err := os.CreateTemp(filepath.Dir(s.diskPath), ".rankd-cache-*")
	if err != nil {
		return fmt.Errorf("serve: disk cache: %w", err)
	}
	defer func() {
		// Best-effort cleanup; after a successful rename the path is gone
		// and the remove is a no-op.
		_ = os.Remove(tmp.Name()) //arlint:allow errflow cleanup of a temp file that may already be renamed away
	}()
	if err := gob.NewEncoder(tmp).Encode(&df); err != nil {
		_ = tmp.Close() //arlint:allow errflow the encode error is the root cause; the close is cleanup
		return fmt.Errorf("serve: disk cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: disk cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.diskPath); err != nil {
		return fmt.Errorf("serve: disk cache: %w", err)
	}
	return nil
}

// LoadDiskCache warms the result cache from the configured path,
// returning how many subgraph entries it recovered. A missing file is a
// cold start (0, nil); a file written by a different format version or —
// crucially — a different graph snapshot is discarded as stale (0, nil);
// a file that does not decode or whose checksum does not match is an
// error that loads nothing.
// Loaded entries carry scores only: the first query for a cached
// subgraph is answered without any power iteration, engines build
// lazily, and a new configuration computes from scratch.
func (s *Server) LoadDiskCache() (int, error) {
	if s.diskPath == "" {
		return 0, nil
	}
	f, err := os.Open(s.diskPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("serve: disk cache: %w", err)
	}
	defer f.Close()
	var df diskFile
	if err := gob.NewDecoder(f).Decode(&df); err != nil {
		return 0, fmt.Errorf("serve: disk cache: %w", err)
	}
	if df.Format != diskFormat || df.GraphSig != s.sig {
		return 0, nil
	}
	if sum := diskSum(df.Entries); sum != df.Sum {
		return 0, fmt.Errorf("serve: disk cache: checksum %08x, file says %08x", sum, df.Sum)
	}
	numNodes := s.gctx.Graph().NumNodes()
	loaded, rejected := 0, 0
	// Entries were saved front (most recent) to back; inserting in
	// reverse restores the LRU order, and capacity enforcement drops the
	// coldest tail if the file outgrew the configured cache.
	s.mu.Lock()
	for i := len(df.Entries) - 1; i >= 0; i-- {
		de := df.Entries[i]
		if !servableDiskEntry(de, numNodes) {
			rejected++
			continue
		}
		ids := de.IDs
		h := hashIDs(ids)
		if _, dup := s.cache.get(h, ids); dup {
			continue
		}
		e := &entry{
			hash:    h,
			ids:     ids,
			results: make(map[string]*core.Result, len(de.Results)),
			engines: make(map[string]*search.Engine),
		}
		for _, dr := range de.Results {
			e.results[dr.CfgKey] = &core.Result{
				Result: pagerank.Result{
					Scores:     dr.Scores,
					Iterations: dr.Iterations,
					Converged:  dr.Converged,
				},
				Lambda: dr.Lambda,
			}
		}
		s.stats.Evictions += int64(s.cache.add(e))
		loaded++
	}
	s.stats.DiskEntriesLoaded += int64(loaded)
	s.stats.DiskEntriesRejected += int64(rejected)
	s.mu.Unlock()
	return loaded, nil
}

// servableDiskEntry reports whether a loaded entry can be served as it
// stands: its ids are canonical (strictly increasing) and inside the
// graph, it has a result, and every result holds one finite,
// non-negative score per id and a finite Λ. SaveDiskCache writes only
// such entries; anything else in a file with the right format and
// signature would be served wrong — scores misaligned with re-sorted
// ids, or a NaN that encoding/json cannot write — so it is dropped.
func servableDiskEntry(de diskEntry, numNodes int) bool {
	if len(de.IDs) == 0 || len(de.Results) == 0 {
		return false
	}
	for i, id := range de.IDs {
		if int(id) >= numNodes || i > 0 && id <= de.IDs[i-1] {
			return false
		}
	}
	for _, dr := range de.Results {
		if len(dr.Scores) != len(de.IDs) || math.IsNaN(dr.Lambda) || math.IsInf(dr.Lambda, 0) {
			return false
		}
		for _, x := range dr.Scores {
			if !(x >= 0) || math.IsInf(x, 1) {
				return false
			}
		}
	}
	return true
}

// castagnoli is the CRC-32C table diskSum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// diskSum is the CRC-32C of what entries hold, in order: each entry's
// ids, and each result's configuration key, score bits, Λ bits,
// iterations and converged flag, every list and key led by its length.
func diskSum(entries []diskEntry) uint32 {
	var sum uint32
	var b []byte
	for _, de := range entries {
		b = binary.LittleEndian.AppendUint32(b[:0], uint32(len(de.IDs)))
		for _, id := range de.IDs {
			b = binary.LittleEndian.AppendUint32(b, id)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(de.Results)))
		for _, dr := range de.Results {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(dr.CfgKey)))
			b = append(b, dr.CfgKey...)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(dr.Scores)))
			for _, x := range dr.Scores {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(dr.Lambda))
			b = binary.LittleEndian.AppendUint64(b, uint64(dr.Iterations))
			converged := byte(0)
			if dr.Converged {
				converged = 1
			}
			b = append(b, converged)
		}
		sum = crc32.Update(sum, castagnoli, b)
	}
	return sum
}

// sortDiskResults orders results by configuration key (insertion sort —
// an entry rarely holds more than a couple of configurations).
func sortDiskResults(rs []diskResult) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].CfgKey < rs[j-1].CfgKey; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
