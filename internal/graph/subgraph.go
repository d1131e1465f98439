package graph

import (
	"fmt"
	"math/bits"
)

// Subgraph ties a set of local pages to the global graph they were drawn
// from. It is the input shape shared by every subgraph ranker in this
// repository: the paper's G_l together with enough of G_g to reason about
// the boundary.
//
// Its index costs N/8 + N/16 + 4n bytes: the Member bitset, a rank
// directory over the bitset's words, and the Local list. LocalID is a
// rank query over the first two.
type Subgraph struct {
	Global *Graph
	// Local maps local id (0..n-1) to global id; it is sorted ascending
	// and free of duplicates.
	Local []NodeID
	// Member answers "is this global id a local page?" in O(1). It is
	// read-only: LocalID ranks over its words, so a caller that needs a
	// mutable set must Clone it.
	Member *NodeSet
	// rank[w] counts the members with ids below 64w, one prefix count
	// per word of Member. A local id is the number of members below it,
	// so LocalID is a bit test plus one popcount.
	rank []uint32
}

// NewSubgraph validates and indexes a set of local pages within global.
// The ids in local may be in any order; they are sorted and deduplicated.
func NewSubgraph(global *Graph, local []NodeID) (*Subgraph, error) {
	if global == nil {
		return nil, fmt.Errorf("graph: nil global graph")
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("graph: subgraph needs at least one local page")
	}
	member := NewNodeSet(global.NumNodes())
	for _, id := range local {
		if int(id) >= global.NumNodes() {
			return nil, fmt.Errorf("graph: local page %d outside global graph (N=%d)", id, global.NumNodes())
		}
		member.Add(id)
	}
	if member.Len() == global.NumNodes() {
		return nil, fmt.Errorf("graph: subgraph equals the global graph; use global PageRank instead")
	}
	// One pass over the words fills Local in id order and records, per
	// word, how many members precede it.
	sorted := make([]NodeID, 0, member.Len())
	rank := make([]uint32, len(member.words))
	for wi, w := range member.words {
		rank[wi] = uint32(len(sorted))
		for ; w != 0; w &= w - 1 {
			sorted = append(sorted, NodeID(wi*64+bits.TrailingZeros64(w)))
		}
	}
	return &Subgraph{Global: global, Local: sorted, Member: member, rank: rank}, nil
}

// N returns the number of local pages (the paper's n).
func (s *Subgraph) N() int { return len(s.Local) }

// External returns the number of external pages (the paper's N−n).
func (s *Subgraph) External() int { return s.Global.NumNodes() - len(s.Local) }

// LocalID returns the local id of global page gid and whether gid is local.
// The local id is gid's rank among the members: the word's prefix count
// plus the members below gid within its word.
func (s *Subgraph) LocalID(gid NodeID) (uint32, bool) {
	w, b := gid/64, gid%64
	word := s.Member.words[w]
	if word&(1<<b) == 0 {
		return 0, false
	}
	return s.rank[w] + uint32(bits.OnesCount64(word&(1<<b-1))), true
}

// GlobalID returns the global id of local page li.
func (s *Subgraph) GlobalID(li uint32) NodeID { return s.Local[li] }

// Induce materializes the induced local graph: the n local pages and the
// edges of the global graph with both endpoints local. Edge weights are
// preserved for weighted global graphs. The returned graph uses local ids;
// Subgraph.Local maps them back.
func (s *Subgraph) Induce() (*Graph, error) {
	b := NewBuilder(s.N())
	for li, gid := range s.Local {
		adj := s.Global.OutNeighbors(gid)
		ws := s.Global.OutWeights(gid)
		for k, v := range adj {
			lv, ok := s.LocalID(v)
			if !ok {
				continue
			}
			if ws != nil {
				b.AddWeightedEdge(uint32(li), lv, ws[k])
			} else {
				b.AddEdge(uint32(li), lv)
			}
		}
	}
	if b.NumEdges() == 0 {
		// A subgraph with no internal edges is legal (all pages dangling);
		// the builder requires at least a node count.
		b.EnsureNode(uint32(s.N() - 1))
	}
	return b.Build()
}

// BoundaryStats summarizes the coupling between local and external pages.
type BoundaryStats struct {
	// OutLinksToExternal counts edges from local pages to external pages.
	OutLinksToExternal int
	// InLinksFromExternal counts edges from external pages to local pages.
	InLinksFromExternal int
	// InternalEdges counts edges with both endpoints local.
	InternalEdges int
	// ExternalInNeighbors counts distinct external pages with at least one
	// edge into the subgraph (the support of the Λ row).
	ExternalInNeighbors int
}

// Boundary computes BoundaryStats by scanning only the adjacency of local
// pages.
func (s *Subgraph) Boundary() BoundaryStats {
	var st BoundaryStats
	seen := NewNodeSet(s.Global.NumNodes())
	for _, gid := range s.Local {
		for _, v := range s.Global.OutNeighbors(gid) {
			if _, ok := s.LocalID(v); ok {
				st.InternalEdges++
			} else {
				st.OutLinksToExternal++
			}
		}
		for _, u := range s.Global.InNeighbors(gid) {
			if _, ok := s.LocalID(u); !ok {
				st.InLinksFromExternal++
				if !seen.Contains(u) {
					seen.Add(u)
					st.ExternalInNeighbors++
				}
			}
		}
	}
	return st
}
