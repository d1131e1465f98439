package search

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestIndexBasics(t *testing.T) {
	terms := [][]uint32{
		{1, 2, 3},
		{2, 3},
		{3},
		{},
	}
	ix := BuildIndex(terms)
	if ix.NumDocs() != 4 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if got := ix.Postings(3); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Postings(3) = %v", got)
	}
	if got := ix.Query([]uint32{2, 3}); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Query(2,3) = %v", got)
	}
	if got := ix.Query([]uint32{1, 3}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Query(1,3) = %v", got)
	}
	if got := ix.Query([]uint32{99}); got != nil {
		t.Fatalf("Query(99) = %v", got)
	}
	if got := ix.Query(nil); got != nil {
		t.Fatalf("Query(nil) = %v", got)
	}
	// Duplicate query terms behave like a single occurrence.
	if got := ix.Query([]uint32{3, 3, 3}); len(got) != 3 {
		t.Fatalf("Query(3,3,3) = %v", got)
	}
}

// TestBuildIndexDuplicateTerms is the regression test for the silent
// postings corruption: a document with a repeated term id used to produce
// duplicate entries in that term's postings list, violating the
// sorted-DISTINCT invariant Query's intersection and galloping search rely
// on (duplicate documents in results, matches dropped when the duplicate
// shadowed a later entry).
func TestBuildIndexDuplicateTerms(t *testing.T) {
	terms := [][]uint32{
		{5, 5, 7}, // adjacent duplicate (sorted bag)
		{7},
		{5, 7, 5, 5}, // non-adjacent duplicates (unsorted bag)
		{1, 5},
	}
	ix := BuildIndex(terms)
	if got := ix.Postings(5); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Postings(5) = %v, want [0 2 3]", got)
	}
	// The intersection must return each matching document exactly once.
	if got := ix.Query([]uint32{5, 7}); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Query(5,7) = %v, want [0 2]", got)
	}
	// Galloping path: one long clean list against a short duplicated one.
	many := make([][]uint32, 200)
	for d := range many {
		many[d] = []uint32{9}
	}
	many[17] = []uint32{3, 3, 9}
	many[150] = []uint32{3, 9, 3}
	ix = BuildIndex(many)
	if got := ix.Query([]uint32{3, 9}); len(got) != 2 || got[0] != 17 || got[1] != 150 {
		t.Fatalf("galloping Query(3,9) = %v, want [17 150]", got)
	}
}

// TestQueryAgainstBruteForce: random indexes, random conjunctive queries.
func TestQueryAgainstBruteForce(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		docs := 1 + rng.Intn(60)
		vocab := 1 + rng.Intn(12)
		terms := make([][]uint32, docs)
		for d := range terms {
			k := rng.Intn(6)
			seen := map[uint32]struct{}{}
			for i := 0; i < k; i++ {
				tm := uint32(rng.Intn(vocab))
				if _, dup := seen[tm]; !dup {
					seen[tm] = struct{}{}
					terms[d] = append(terms[d], tm)
				}
			}
			sortU32(terms[d])
		}
		ix := BuildIndex(terms)
		q := make([]uint32, 1+rng.Intn(3))
		for i := range q {
			q[i] = uint32(rng.Intn(vocab))
		}
		got := ix.Query(q)
		// Brute force.
		var want []int
		for d, bag := range terms {
			ok := true
			for _, qt := range q {
				found := false
				for _, tm := range bag {
					if tm == qt {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func sortU32(v []uint32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TestGallopingIntersect exercises the asymmetric-length path.
func TestGallopingIntersect(t *testing.T) {
	long := make([]int, 1000)
	for i := range long {
		long[i] = i * 2 // evens
	}
	short := []int{3, 10, 500, 999, 1998}
	got := intersect(short, long)
	want := []int{10, 500, 1998}
	if len(got) != len(want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intersect = %v, want %v", got, want)
		}
	}
}

// TestEngineEndToEnd: index a domain of a generated web, rank it with
// ApproxRank, and answer queries.
func TestEngineEndToEnd(t *testing.T) {
	ds, err := gen.Generate(gen.Config{Pages: 5000, Domains: 6, Topics: 5, Seed: 3})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	allTerms, err := gen.AssignTerms(ds, gen.TermConfig{Seed: 4})
	if err != nil {
		t.Fatalf("AssignTerms: %v", err)
	}
	sub, err := graph.NewSubgraph(ds.Graph, ds.DomainPages(2))
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	res, err := core.ApproxRank(sub, core.Config{})
	if err != nil {
		t.Fatalf("ApproxRank: %v", err)
	}
	localTerms := make([][]uint32, sub.N())
	for li, gid := range sub.Local {
		localTerms[li] = allTerms[gid]
	}
	eng, err := NewEngine(sub, localTerms, res.Scores)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// Find a term with a healthy posting list and query it.
	var probe uint32
	best := 0
	counts := map[uint32]int{}
	for _, bag := range localTerms {
		for _, tm := range bag {
			counts[tm]++
			if counts[tm] > best {
				best = counts[tm]
				probe = tm
			}
		}
	}
	hits, err := eng.TopK([]uint32{probe}, 10)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits for the most common term")
	}
	if eng.MatchCount([]uint32{probe}) != best {
		t.Fatalf("MatchCount = %d, want %d", eng.MatchCount([]uint32{probe}), best)
	}
	// Hits are score-descending and pages belong to the subgraph.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Fatalf("hits not sorted: %v", hits)
		}
	}
	for _, h := range hits {
		if _, local := sub.LocalID(h.Page); !local {
			t.Fatalf("hit %d outside the subgraph", h.Page)
		}
	}
	if _, err := eng.TopK([]uint32{probe}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestEngineValidation(t *testing.T) {
	ds, err := gen.Generate(gen.Config{Pages: 200, Domains: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sub, err := graph.NewSubgraph(ds.Graph, ds.DomainPages(0))
	if err != nil {
		t.Fatalf("NewSubgraph: %v", err)
	}
	if _, err := NewEngine(nil, nil, nil); err == nil {
		t.Error("nil subgraph accepted")
	}
	if _, err := NewEngine(sub, make([][]uint32, 3), make([]float64, sub.N())); err == nil {
		t.Error("mismatched term bags accepted")
	}
}

// TestAssignTerms: determinism, topical locality, and validation.
func TestAssignTerms(t *testing.T) {
	ds, err := gen.Generate(gen.Config{Pages: 4000, Domains: 4, Topics: 4, Seed: 6})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	a, err := gen.AssignTerms(ds, gen.TermConfig{Seed: 7})
	if err != nil {
		t.Fatalf("AssignTerms: %v", err)
	}
	b, err := gen.AssignTerms(ds, gen.TermConfig{Seed: 7})
	if err != nil {
		t.Fatalf("AssignTerms: %v", err)
	}
	for p := range a {
		if len(a[p]) != len(b[p]) {
			t.Fatalf("page %d: nondeterministic term count", p)
		}
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				t.Fatalf("page %d: nondeterministic terms", p)
			}
		}
	}
	// Topical locality: same-topic pages share terms more than
	// cross-topic pages (sampled).
	rng := rand.New(rand.NewSource(8))
	sameOverlap, crossOverlap := 0.0, 0.0
	samples := 0
	for i := 0; i < 3000; i++ {
		p := rng.Intn(len(a))
		q := rng.Intn(len(a))
		if p == q || len(a[p]) == 0 || len(a[q]) == 0 {
			continue
		}
		ov := overlap(a[p], a[q])
		if ds.Topic[p] == ds.Topic[q] {
			sameOverlap += ov
		} else {
			crossOverlap += ov
		}
		samples++
	}
	if samples == 0 || sameOverlap <= crossOverlap {
		t.Errorf("no topical locality in terms: same %v vs cross %v", sameOverlap, crossOverlap)
	}
	if _, err := gen.AssignTerms(nil, gen.TermConfig{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := gen.AssignTerms(ds, gen.TermConfig{VocabSize: -1}); err == nil {
		t.Error("negative vocabulary accepted")
	}
	if _, err := gen.AssignTerms(ds, gen.TermConfig{MeanTerms: -1}); err == nil {
		t.Error("negative mean terms accepted")
	}
	if _, err := gen.AssignTerms(ds, gen.TermConfig{TopicVocabFraction: 2}); err == nil {
		t.Error("bad topic fraction accepted")
	}
}

func overlap(a, b []uint32) float64 {
	m := map[uint32]struct{}{}
	for _, x := range a {
		m[x] = struct{}{}
	}
	hit := 0
	for _, y := range b {
		if _, ok := m[y]; ok {
			hit++
		}
	}
	return float64(hit)
}
