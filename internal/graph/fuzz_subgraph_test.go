package graph

import (
	"testing"
)

// FuzzSubgraph drives subgraph extraction with arbitrary graphs and
// member sets decoded from the fuzz input. The invariants are the heart
// of the paper's G_l-within-G_g setup: extraction must never panic, the
// NodeSet and Local slice must describe the same membership, local and
// global ids must be inverse bijections, and the induced graph must
// contain exactly the global edges with both endpoints local —
// multiplicity aside, extraction neither invents nor loses edges.
// Graphs reach 256 nodes, four NodeSet words, so the rank directory's
// prefix counts are exercised across word boundaries; the seeds put
// members on both sides of the 64 and 128 boundaries.
func FuzzSubgraph(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 3, 4}, []byte{0, 1, 2})
	f.Add([]byte{3, 0, 0}, []byte{2})
	f.Add([]byte{1}, []byte{0})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{64, 63, 64, 64, 63, 0, 64, 64, 0}, []byte{64, 63})
	f.Add([]byte{128, 127, 128, 128, 63, 64, 127, 0, 128, 128, 64}, []byte{128, 0, 127, 64, 63})
	f.Add([]byte{128, 1, 2, 127, 128}, []byte{128})
	f.Add([]byte{255, 0, 255, 255, 128, 191, 64, 63, 192}, []byte{255, 191, 192, 64, 63, 128, 127, 0})
	f.Fuzz(func(t *testing.T, graphData, memberData []byte) {
		g := decodeFuzzGraph(graphData)
		if g == nil {
			return
		}
		var local []NodeID
		for _, b := range memberData {
			// Deliberately out-of-range sometimes: NewSubgraph must reject,
			// not panic.
			local = append(local, NodeID(b))
		}
		sub, err := NewSubgraph(g, local)
		if err != nil {
			return
		}

		// Local is sorted, deduplicated, and agrees with the Member set.
		if sub.Member.Len() != len(sub.Local) {
			t.Fatalf("Member.Len() = %d, len(Local) = %d", sub.Member.Len(), len(sub.Local))
		}
		for i, gid := range sub.Local {
			if i > 0 && sub.Local[i-1] >= gid {
				t.Fatalf("Local not sorted/deduplicated at %d: %v", i, sub.Local)
			}
			if !sub.Member.Contains(gid) {
				t.Fatalf("Local[%d] = %d missing from Member set", i, gid)
			}
		}

		// LocalID and GlobalID are inverse bijections over the members.
		for li, gid := range sub.Local {
			got, ok := sub.LocalID(gid)
			if !ok || got != uint32(li) {
				t.Fatalf("LocalID(GlobalID(%d)) = %d,%v, want %d,true", li, got, ok, li)
			}
		}
		for gid := 0; gid < g.NumNodes(); gid++ {
			if _, ok := sub.LocalID(NodeID(gid)); ok != sub.Member.Contains(NodeID(gid)) {
				t.Fatalf("LocalID(%d) membership %v disagrees with Member set %v",
					gid, ok, sub.Member.Contains(NodeID(gid)))
			}
		}

		induced, err := sub.Induce()
		if err != nil {
			t.Fatalf("Induce on a valid subgraph: %v", err)
		}
		if induced.NumNodes() != sub.N() {
			t.Fatalf("induced graph has %d nodes, want %d", induced.NumNodes(), sub.N())
		}
		// Every induced edge maps back to a global edge between members,
		// and every global member-to-member edge survives induction. The
		// builder deduplicates parallel edges, so compare edge sets.
		for li := 0; li < induced.NumNodes(); li++ {
			for _, lv := range induced.OutNeighbors(NodeID(li)) {
				u, v := sub.GlobalID(uint32(li)), sub.GlobalID(uint32(lv))
				if !g.HasEdge(u, v) {
					t.Fatalf("induced edge %d->%d has no global counterpart %d->%d", li, lv, u, v)
				}
			}
		}
		for li, gid := range sub.Local {
			for _, v := range g.OutNeighbors(gid) {
				lv, ok := sub.LocalID(v)
				if !ok {
					continue
				}
				if !induced.HasEdge(NodeID(li), NodeID(lv)) {
					t.Fatalf("global edge %d->%d between members lost in induction", gid, v)
				}
			}
		}
	})
}

// decodeFuzzGraph builds a small graph from fuzz bytes: the first byte
// picks the node count (1..256), the rest pair up into edges with both
// endpoints reduced mod n. Returns nil when the input cannot make a
// graph.
func decodeFuzzGraph(data []byte) *Graph {
	if len(data) == 0 {
		return nil
	}
	n := int(data[0]) + 1
	b := NewBuilder(n)
	b.EnsureNode(NodeID(n - 1))
	pairs := data[1:]
	for i := 0; i+1 < len(pairs); i += 2 {
		b.AddEdge(NodeID(int(pairs[i])%n), NodeID(int(pairs[i+1])%n))
	}
	g, err := b.Build()
	if err != nil {
		return nil
	}
	return g
}
