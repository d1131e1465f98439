package serve

import (
	"bytes"
	"container/list"
	"hash/maphash"
	"math/bits"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
)

// entry is one cached subgraph: its canonical identity and the
// converged results and search engines per rank configuration. An entry
// holds nothing sized by the global graph and no chain: the Subgraph
// index and the chain a result is computed from live only while it is
// computed, so a new configuration for a cached subgraph builds its
// chain again (a chain is a function of the Context and the ids, so its
// scores are the same).
//
// tails holds, per configuration key, the encoded rank response after
// its node list (see hitTail). A configuration's tail is stored on its
// first result hit; a cached result is never replaced (storeResult), so
// a tail lives as long as its entry. The map stays nil on entries that
// are never hit.
//
// raw is the one request body the raw tier answers with this entry: an
// exact-size copy of a /v1/rank body that a tail hit under rawKey
// answered, indexed in lruCache.byRaw under rawHash. It is nil while no
// body is registered, and it never outlives the tail it selects.
type entry struct {
	hash    uint64
	ids     []graph.NodeID // canonical: sorted ascending, distinct
	results map[string]*core.Result
	engines map[string]*search.Engine
	tails   map[string][]byte

	raw     []byte
	rawKey  string
	rawHash uint64
}

// lruCache is an LRU of entries keyed by the FNV-1a hash of the canonical
// (sorted-distinct) node-ID list. Hash collisions are resolved exactly:
// each bucket holds the (almost always single) entries sharing a hash and
// lookups compare the full ID lists, so a collision degrades to a second
// compare, never to a wrong answer. byRaw indexes the entries' registered
// request bodies by hashRaw, one body per slot, under the same rule: a
// lookup answers only a body byte for byte equal to the registered one.
// Not safe for concurrent use — the Server serializes access under its
// mutex.
type lruCache struct {
	cap    int
	ll     *list.List // front = most recently used; values are *entry
	byHash map[uint64][]*list.Element
	byRaw  map[uint64]*list.Element
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:    capacity,
		ll:     list.New(),
		byHash: make(map[uint64][]*list.Element),
		byRaw:  make(map[uint64]*list.Element),
	}
}

// lookup returns the list element of the entry for the canonical id
// list, or nil, without promoting it.
func (c *lruCache) lookup(hash uint64, ids []graph.NodeID) *list.Element {
	for _, el := range c.byHash[hash] {
		if idsEqual(el.Value.(*entry).ids, ids) {
			return el
		}
	}
	return nil
}

// get returns the entry for the canonical id list, promoting it to most
// recently used.
func (c *lruCache) get(hash uint64, ids []graph.NodeID) (*entry, bool) {
	el := c.lookup(hash, ids)
	if el == nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// getRaw returns the entry whose registered body is raw, hashed to h by
// hashRaw, promoting it to most recently used as get does.
func (c *lruCache) getRaw(h uint64, raw []byte) (*entry, bool) {
	el, ok := c.byRaw[h]
	if !ok || !bytes.Equal(el.Value.(*entry).raw, raw) {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// setRaw registers a copy of raw, hashed to h, as the body the entry at
// el answers under the configuration key. It replaces the entry's
// previous body and drops the body of any other entry in h's slot.
func (c *lruCache) setRaw(el *list.Element, h uint64, raw []byte, key string) {
	e := el.Value.(*entry)
	c.dropRaw(e)
	if prev, ok := c.byRaw[h]; ok {
		c.dropRaw(prev.Value.(*entry))
	}
	e.raw = make([]byte, len(raw))
	copy(e.raw, raw)
	e.rawKey, e.rawHash = key, h
	c.byRaw[h] = el
}

// dropRaw unregisters the entry's body, if it has one.
func (c *lruCache) dropRaw(e *entry) {
	if e.raw != nil {
		delete(c.byRaw, e.rawHash)
		e.raw, e.rawKey = nil, ""
	}
}

// add inserts a new entry as most recently used and returns how many
// entries were evicted to stay within capacity. The caller must have
// checked get first — duplicate identities are the caller's bug.
func (c *lruCache) add(e *entry) int {
	el := c.ll.PushFront(e)
	c.byHash[e.hash] = append(c.byHash[e.hash], el)
	evicted := 0
	for c.ll.Len() > c.cap {
		c.removeElement(c.ll.Back())
		evicted++
	}
	return evicted
}

func (c *lruCache) removeElement(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	c.dropRaw(e)
	bucket := c.byHash[e.hash]
	for i, b := range bucket {
		if b == el {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.byHash, e.hash)
	} else {
		c.byHash[e.hash] = bucket
	}
}

// len returns the number of cached entries.
func (c *lruCache) len() int { return c.ll.Len() }

// canonicalIDs validates and canonicalizes a request's node list: every
// id must fall inside the global graph, and the returned copy is sorted
// ascending with duplicates removed — the subgraph identity every cache
// layer keys on (graph.NewSubgraph applies the same normalization, so
// the key and the built subgraph can never disagree). Input that is
// already non-decreasing (domain slices) skips the sort; anything else
// is radix-sorted.
func canonicalIDs(nodes []uint32, numNodes int) ([]graph.NodeID, error) {
	if len(nodes) == 0 {
		return nil, errNoNodes
	}
	ids := make([]graph.NodeID, len(nodes))
	sorted := true
	var hi graph.NodeID
	for i, v := range nodes {
		if int(v) >= numNodes {
			return nil, &nodeRangeError{id: v, n: numNodes}
		}
		sorted = sorted && v >= hi
		hi = max(hi, v)
		ids[i] = v
	}
	if !sorted {
		ids = radixSort(ids, make([]graph.NodeID, len(ids)), hi)
	}
	w := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			ids[w] = ids[i]
			w++
		}
	}
	return ids[:w], nil
}

// radixBits is the digit width of radixSort: three passes cover any
// uint32, two cover ids below 2^22, and a pass's 2^11 counters fit in L1.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// radixSort sorts ids ascending by an LSD radix sort over 11-bit digits,
// running only the passes that hi, the largest id, has significant bits
// for. Each pass scatters stably into the other of ids and tmp (equal
// lengths); the returned slice is whichever of the two ends up sorted.
func radixSort(ids, tmp []graph.NodeID, hi graph.NodeID) []graph.NodeID {
	var count [1 << radixBits]int
	for shift := 0; shift < bits.Len32(hi); shift += radixBits {
		clear(count[:])
		for _, v := range ids {
			count[v>>shift&radixMask]++
		}
		sum := 0
		for d, c := range count[:] {
			count[d] = sum
			sum += c
		}
		for _, v := range ids {
			d := v >> shift & radixMask
			tmp[count[d]] = v
			count[d]++
		}
		ids, tmp = tmp, ids
	}
	return ids
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rawSeed keys hashRaw for the life of the process; raw registrations
// are never persisted, so no hash outlives it.
var rawSeed = maphash.MakeSeed()

// hashRaw is the raw tier's hash of a request body.
func hashRaw(raw []byte) uint64 {
	return maphash.Bytes(rawSeed, raw)
}

// hashIDs is the canonical subgraph identity hash: FNV-1a over the
// length and the sorted-distinct node ids. It runs on every request, so
// it is kept pure and allocation-free.
//
//arlint:hot
func hashIDs(ids []graph.NodeID) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(len(ids))) * fnvPrime64
	for _, id := range ids {
		h = (h ^ uint64(id)) * fnvPrime64
	}
	return h
}

// idsEqual reports whether two canonical id lists denote the same
// subgraph — the exact check behind every hashed lookup.
//
//arlint:hot
func idsEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
