package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"repro/internal/crawler"
	"repro/internal/graph"
)

// The three workloads. Each is a closed loop — a client sends its next
// request only when the previous answer is in — over persistent HTTP/1.1
// connections to an in-process server, replaying a request sequence fixed
// by --seed.
//
// Why in-process and at most two connections: on a VM with two shared
// vCPUs, a rankd subprocess driven from a second process spread hot-path
// throughput over 221–358 ops/s across identical runs, mostly
// cross-process wake-ups, and its client burned 1.2 ms of CPU per
// request. In one process with two connections the loopback transport
// stays in the measurement (it is what a caller pays) but the scheduler
// noise of a third busy process does not.
//
//   - hot-repeat: 2 connections; requests drawn uniformly from 64 BFS
//     crawls of 100–5,000 pages, all answered from the result cache (an
//     untimed priming process saved them to the disk cache, and the
//     measured server warm-starts from it). Repeat share 100%. It is the
//     mechanism workload for serve's hit path — canonicalize, LRU lookup,
//     encode, transport — and the bypass workload for graph and core.
//   - crawl-cold: 2 connections; every request is a distinct BFS crawl of
//     100–5,000 pages (mean ~2,550). Repeat share 0%, so each request
//     misses, builds a Subgraph and a chain, iterates (~4 times) and
//     evicts one LRU entry. It exercises the per-query path the paper
//     promises is local, and graph's O(N) subgraph index.
//   - domain-batch: 1 connection; each request is a /v1/rank batch of 4
//     distinct contiguous slices, each 25–100% of one domain, one domain
//     from each quarter of the domains by size (~3k–363k pages per
//     slice). Repeat share 0%. It is the paper's
//     multi-subgraph domain scenario: the batch path runs
//     core.RankManyCtx and never reads the result cache, and the power
//     iteration is the largest layer.
//
// Sizes and seed pages follow low-discrepancy sequences and domains are
// dealt evenly (see weyl), so the seed changes which subgraphs a run
// asks for but hardly their mix: on a 2-vCPU VM, independent draws alone
// moved hot-repeat's throughput by ~10% from seed to seed.
const (
	hotRepeat   = "hot-repeat"
	crawlCold   = "crawl-cold"
	domainBatch = "domain-batch"
)

var workloadNames = []string{hotRepeat, crawlCold, domainBatch}

const (
	hotSetSize   = 64
	minCrawl     = 100
	maxCrawl     = 5000
	batchItems   = 4
	minSliceFrac = 0.25
)

// connsFor returns the number of client connections of a workload.
func connsFor(workload string) int {
	if workload == domainBatch {
		return 1
	}
	return 2
}

// warmupRequests is how many requests of the timed phase's own traffic
// run untimed right before it. After the fill and its forced
// collection the heap holds little more than the LRU, and it grows into
// fresh pages until ~2.4 GB more has been allocated: on crawl-cold the
// first ~300 requests ran at half the steady rate.
func warmupRequests(workload string) int {
	switch workload {
	case hotRepeat:
		return 1024 // ~1 s; the hit path allocates little
	case crawlCold:
		return 512 // ~8 MB each
	}
	return 32 // domain-batch: ~60–200 MB each
}

// itemsPerRequest returns how many subgraphs each request of a workload
// ranks.
func itemsPerRequest(workload string) int {
	if workload == domainBatch {
		return batchItems
	}
	return 1
}

// item is one subgraph of a request, in canonical form: the sorted,
// distinct node list the server echoes back with the scores.
type item struct {
	ids    []uint32 // canonical node list; nil for a contiguous slice
	lo, hi uint32   // the slice [lo, hi) when ids is nil
}

func (it *item) n() int {
	if it.ids != nil {
		return len(it.ids)
	}
	return int(it.hi - it.lo)
}

func (it *item) node(k int) uint32 {
	if it.ids != nil {
		return it.ids[k]
	}
	return it.lo + uint32(k)
}

// nodes materializes the canonical node list.
func (it *item) nodes() []graph.NodeID {
	out := make([]graph.NodeID, it.n())
	for k := range out {
		out[k] = it.node(k)
	}
	return out
}

// request is one HTTP request of a workload: its position in the seeded
// sequence, its subgraphs and its JSON body.
type request struct {
	seq   int
	items []item
	body  []byte
	hot   int // index into the hot set (hot-repeat), else -1
}

// stream ids derive independent random sequences from one seed.
const (
	streamHotSet = iota + 1
	streamMain
	streamQuiet
)

func streamRand(seed int64, stream int) *rand.Rand {
	// splitmix64 of (seed, stream): nearby seeds give unrelated streams.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(z ^ (z >> 31))))
}

// Steps of two golden-ratio-style low-discrepancy sequences, one per
// coordinate a request draws (size, and seed page).
const (
	sizeStep = 0.6180339887498949  // φ−1
	posStep  = 0.41421356237309515 // √2−1
)

// weyl returns the k-th point, offset by u, of the low-discrepancy
// sequence with the given step in [0, 1). Subgraph sizes and seed pages
// follow it rather than independent draws, so any stretch of a run
// covers their ranges evenly and a run's mix of subgraphs — and with it
// every timing — barely depends on the seed.
func weyl(k int, u, step float64) float64 {
	x := u + float64(k)*step
	return x - math.Floor(x)
}

// crawlItem runs one BFS crawl of a size at frac of the way from
// minCrawl to maxCrawl, from the seed page at pos of the way through the
// page ids (domains are contiguous id ranges, so pos picks the domain).
// It returns the pages in crawl order (the request body; the server
// canonicalizes) and the canonical item.
func crawlItem(g *graph.Graph, rng *rand.Rand, frac, pos float64) ([]uint32, item, error) {
	want := minCrawl + int(frac*float64(maxCrawl-minCrawl+1))
	seed := graph.NodeID(pos * float64(g.NumNodes()))
	for {
		pages, err := crawler.BFS(g, seed, want)
		if err != nil {
			return nil, item{}, err
		}
		if len(pages) < minCrawl {
			// A stalled crawl: try another seed page.
			seed = graph.NodeID(rng.Intn(g.NumNodes()))
			continue
		}
		ids := append([]uint32(nil), pages...)
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		return pages, item{ids: ids}, nil
	}
}

// hotSet returns the 64 distinct crawls hot-repeat draws from, with their
// request bodies. The priming process and the measured process both call
// it, so it must depend on the web and the seed only.
func hotSet(g *graph.Graph, seed int64) ([]*request, error) {
	rng := streamRand(seed, streamHotSet)
	seen := make(map[uint64]bool)
	var set []*request
	// One size from each 1/64 of the size range and, independently
	// paired, one seed page from each 1/64 of the id range: the set's mix
	// of sizes and domains is the same for every seed.
	posStratum := rng.Perm(hotSetSize)
	for len(set) < hotSetSize {
		i := len(set)
		frac := (float64(i) + rng.Float64()) / hotSetSize
		pos := (float64(posStratum[i]) + rng.Float64()) / hotSetSize
		pages, it, err := crawlItem(g, rng, frac, pos)
		if err != nil {
			return nil, err
		}
		h := itemHash(&it)
		if seen[h] {
			continue // redraw this stratum
		}
		seen[h] = true
		set = append(set, &request{seq: i, items: []item{it}, body: singleBody(pages), hot: i})
	}
	return set, nil
}

// generator hands out a workload's requests in sequence order. Clients
// share it under a mutex, so the sequence is fixed by the seed whichever
// connection sends each request.
type generator struct {
	mu    sync.Mutex
	seq   int
	limit int // stop after this many requests; 0 = unlimited
	next  func(seq int) (*request, error)
	err   error
}

// take returns the next request, or nil once the limit is reached or a
// request could not be built.
func (gn *generator) take() *request {
	gn.mu.Lock()
	defer gn.mu.Unlock()
	if gn.err != nil || (gn.limit > 0 && gn.seq >= gn.limit) {
		return nil
	}
	r, err := gn.next(gn.seq)
	if err != nil {
		gn.err = err
		return nil
	}
	gn.seq++
	return r
}

// source builds a workload's request sequences. Every subgraph it hands
// out in a run is distinct (seen is shared by all its streams), except
// on hot-repeat, whose point is repetition.
type source struct {
	workload string
	g        *graph.Graph
	domains  []int // domain start offsets, len domains+1
	hot      []*request
	seen     map[uint64]bool
}

func newSource(workload string, g *graph.Graph, domainStarts []int, hot []*request) *source {
	return &source{workload: workload, g: g, domains: domainStarts, hot: hot, seen: make(map[uint64]bool)}
}

// stream returns a generator for one seeded stream of requests.
func (src *source) stream(seed int64, stream int) *generator {
	rng := streamRand(seed, stream)
	u, u2 := rng.Float64(), rng.Float64()
	var next func(seq int) (*request, error)
	switch src.workload {
	case hotRepeat:
		next = func(seq int) (*request, error) {
			h := src.hot[rng.Intn(len(src.hot))]
			return &request{seq: seq, items: h.items, body: h.body, hot: h.hot}, nil
		}
	case crawlCold:
		next = func(seq int) (*request, error) {
			pos := weyl(seq, u2, posStep)
			for {
				pages, it, err := crawlItem(src.g, rng, weyl(seq, u, sizeStep), pos)
				if err != nil {
					return nil, err
				}
				if src.fresh(&it) {
					return &request{seq: seq, items: []item{it}, body: singleBody(pages), hot: -1}, nil
				}
				pos = rng.Float64() // a repeat: crawl from elsewhere
			}
		}
	case domainBatch:
		// Each batch takes one slice from each quarter of the domains by
		// size, largest quarter first, dealt from a fresh seeded
		// permutation of that quarter whenever it runs out. Every domain
		// — from ~13k to ~363k pages, the heavy tail of the batch cost —
		// recurs at the same rate in every run and every batch has the
		// same shape, so the batch-cost distribution, p90 above all,
		// hardly depends on the seed.
		strata := sizeStrata(src.domains, batchItems)
		decks := make([][]int, batchItems)
		dealt := 0
		next = func(seq int) (*request, error) {
			r := &request{seq: seq, hot: -1}
			for len(r.items) < batchItems {
				k := len(r.items)
				if len(decks[k]) == 0 {
					for _, i := range rng.Perm(len(strata[k])) {
						decks[k] = append(decks[k], strata[k][i])
					}
				}
				d := decks[k][0]
				decks[k] = decks[k][1:]
				it := src.domainSlice(rng, d, minSliceFrac+(1-minSliceFrac)*weyl(dealt, u, sizeStep))
				dealt++
				if src.fresh(&it) {
					r.items = append(r.items, it)
				}
			}
			r.body = batchBody(r.items)
			return r, nil
		}
	default:
		panic("unknown workload " + src.workload)
	}
	return &generator{next: next}
}

// sizeStrata splits the domains, ordered by size from largest, into n
// groups of near-equal count.
func sizeStrata(starts []int, n int) [][]int {
	order := make([]int, len(starts)-1)
	for d := range order {
		order[d] = d
	}
	size := func(d int) int { return starts[d+1] - starts[d] }
	sort.SliceStable(order, func(a, b int) bool { return size(order[a]) > size(order[b]) })
	strata := make([][]int, n)
	for i, d := range order {
		k := i * n / len(order)
		strata[k] = append(strata[k], d)
	}
	return strata
}

// fresh records it and reports whether no earlier request of the run
// carried the same subgraph.
func (src *source) fresh(it *item) bool {
	h := itemHash(it)
	if src.seen[h] {
		return false
	}
	src.seen[h] = true
	return true
}

// domainSlice draws a contiguous slice covering frac of domain d at a
// random offset.
func (src *source) domainSlice(rng *rand.Rand, d int, frac float64) item {
	start, size := src.domains[d], src.domains[d+1]-src.domains[d]
	m := int(frac*float64(size) + 0.5)
	if m < 1 {
		m = 1
	}
	off := rng.Intn(size - m + 1)
	return item{lo: uint32(start + off), hi: uint32(start + off + m)}
}

// itemHash is FNV-1a over the canonical node list.
func itemHash(it *item) uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(it.n())) * 1099511628211
	for k := 0; k < it.n(); k++ {
		h = (h ^ uint64(it.node(k))) * 1099511628211
	}
	return h
}

func singleBody(pages []uint32) []byte {
	b := append(make([]byte, 0, 16+8*len(pages)), `{"nodes":`...)
	b = appendIDs(b, pages)
	return append(b, '}')
}

func batchBody(items []item) []byte {
	size := 16
	for i := range items {
		size += 8*items[i].n() + 2
	}
	b := append(make([]byte, 0, size), `{"subgraphs":[`...)
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for k := 0; k < items[i].n(); k++ {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, uint64(items[i].node(k)), 10)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func appendIDs(b []byte, ids []uint32) []byte {
	b = append(b, '[')
	for k, id := range ids {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return append(b, ']')
}

// checkWorkload rejects an unknown workload name.
func checkWorkload(name string) error {
	for _, w := range workloadNames {
		if w == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
