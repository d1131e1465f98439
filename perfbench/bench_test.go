package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestPercentileCarriesSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	p90 := percentile(xs, 0.9)
	if p90.n != 100 || p90.above != 9 {
		t.Fatalf("p90 of 100: n=%d above=%d, want 100 and 9", p90.n, p90.above)
	}
	if math.Abs(p90.value-90.1) > 1e-9 {
		t.Fatalf("p90 = %v, want 90.1", p90.value)
	}
	if !strings.Contains(p90.String(), "n=100") {
		t.Fatalf("%q does not print its sample count", p90.String())
	}
	if p50 := percentile([]float64{3, 1, 2}, 0.5); p50.value != 2 || p50.n != 3 || p50.above != 1 {
		t.Fatalf("p50 of {1,2,3} = %+v", p50)
	}
	if empty := percentile(nil, 0.5); !math.IsNaN(empty.value) || empty.n != 0 {
		t.Fatalf("empty sample gave %+v", empty)
	}
	if m := median([]float64{5, 1, 4, 2}); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
}

// testSource builds a source over a small generated web.
func testSource(t *testing.T, workload string, seed int64) *source {
	t.Helper()
	ds, err := gen.Generate(gen.Config{Pages: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	starts := []int{0}
	for d := 0; d < ds.NumDomains(); d++ {
		starts = append(starts, starts[d]+ds.DomainSize(d))
	}
	var hot []*request
	if workload == hotRepeat {
		if hot, err = hotSet(ds.Graph, seed); err != nil {
			t.Fatal(err)
		}
	}
	return newSource(workload, ds.Graph, starts, hot)
}

func takeBodies(t *testing.T, gn *generator, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < n; i++ {
		r := gn.take()
		if r == nil {
			t.Fatalf("generator stopped after %d requests: %v", i, gn.err)
		}
		if r.seq != i {
			t.Fatalf("request %d has seq %d", i, r.seq)
		}
		out = append(out, r.body)
	}
	return out
}

func TestSeededRequestsRepeatExactly(t *testing.T) {
	for _, w := range workloadNames {
		a := takeBodies(t, testSource(t, w, 7).stream(7, streamMain), 40)
		b := takeBodies(t, testSource(t, w, 7).stream(7, streamMain), 40)
		c := takeBodies(t, testSource(t, w, 8).stream(8, streamMain), 40)
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two sources with seed 7", w, i)
			}
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Fatalf("%s: seeds 7 and 8 gave the same sequence", w)
		}
	}
}

func TestRequestShapes(t *testing.T) {
	src := testSource(t, crawlCold, 1)
	main, quiet := src.stream(1, streamMain), src.stream(1, streamQuiet)
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		r := main.take()
		if i%2 == 1 {
			r = quiet.take() // streams share the run's distinctness
		}
		it := &r.items[0]
		if it.n() < minCrawl || it.n() > maxCrawl {
			t.Fatalf("crawl of %d pages", it.n())
		}
		if h := itemHash(it); seen[h] {
			t.Fatalf("crawl-cold repeated a subgraph at request %d", i)
		} else {
			seen[h] = true
		}
		var body struct{ Nodes []uint32 }
		if err := json.Unmarshal(r.body, &body); err != nil || len(body.Nodes) != it.n() {
			t.Fatalf("body does not carry the crawl: %v", err)
		}
	}

	src = testSource(t, domainBatch, 1)
	strata := sizeStrata(src.domains, batchItems)
	gn := src.stream(1, streamMain)
	for i := 0; i < 50; i++ {
		r := gn.take()
		if len(r.items) != batchItems {
			t.Fatalf("batch of %d", len(r.items))
		}
		var body struct{ Subgraphs [][]uint32 }
		if err := json.Unmarshal(r.body, &body); err != nil || len(body.Subgraphs) != batchItems {
			t.Fatalf("batch body: %v", err)
		}
		for k := range r.items {
			it := &r.items[k]
			d := domainOf(src.domains, it.lo)
			size := src.domains[d+1] - src.domains[d]
			if int(it.hi) > src.domains[d+1] || float64(it.n()) < minSliceFrac*float64(size)-1 {
				t.Fatalf("slice [%d,%d) is not 25-100%% of domain %d [%d,%d)", it.lo, it.hi, d, src.domains[d], src.domains[d+1])
			}
			if len(body.Subgraphs[k]) != it.n() || body.Subgraphs[k][0] != it.lo {
				t.Fatalf("batch body item %d does not carry its slice", k)
			}
			if !contains(strata[k], d) {
				t.Fatalf("batch item %d is from domain %d, outside size quarter %v", k, d, strata[k])
			}
		}
	}

	src = testSource(t, hotRepeat, 1)
	if len(src.hot) != hotSetSize {
		t.Fatalf("hot set of %d", len(src.hot))
	}
	gn = src.stream(1, streamMain)
	for i := 0; i < 100; i++ {
		if r := gn.take(); !bytes.Equal(r.body, src.hot[r.hot].body) {
			t.Fatal("hot request does not repeat its hot crawl")
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func domainOf(starts []int, page uint32) int {
	d := 0
	for d+1 < len(starts) && starts[d+1] <= int(page) {
		d++
	}
	return d
}

const goodAnswer = `{"nodes":[3,5,9],"scores":[0.1,0.2,0.3],"lambda":0.4,"iterations":5,"converged":true,"cached":false,"tier":{"x":[1,"a\"b"]}}`

func TestCheckerAcceptsAWellFormedAnswer(t *testing.T) {
	it := &item{ids: []uint32{3, 5, 9}}
	var a answer
	if err := parseRank([]byte(goodAnswer+"\n"), &a); err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(it, &a); err != nil {
		t.Fatal(err)
	}
	if a.iterations != 5 || a.cached || !a.converged {
		t.Fatalf("parsed %+v", a)
	}
}

func TestCheckerRejectsPerturbedAnswers(t *testing.T) {
	it := &item{ids: []uint32{3, 5, 9}}
	for name, body := range map[string]string{
		"perturbed score":     strings.Replace(goodAnswer, "0.2,", "0.2000001,", 1),
		"negative score":      strings.Replace(goodAnswer, "[0.1,", "[-0.1,", 1),
		"dropped node":        strings.Replace(strings.Replace(goodAnswer, "[3,5,9]", "[3,9]", 1), "0.2,", "", 1),
		"misaligned node":     strings.Replace(goodAnswer, "[3,5,9]", "[3,6,9]", 1),
		"not converged":       strings.Replace(goodAnswer, `"converged":true`, `"converged":false`, 1),
		"mass off by lambda":  strings.Replace(goodAnswer, `"lambda":0.4`, `"lambda":0.5`, 1),
		"truncated":           goodAnswer[:40],
		"trailing garbage":    goodAnswer + "x",
		"scores not an array": strings.Replace(goodAnswer, "[0.1,0.2,0.3]", `"0.1"`, 1),
	} {
		var a answer
		err := parseRank([]byte(body), &a)
		if err == nil {
			err = checkAnswer(it, &a)
		}
		if err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

func TestCheckerBatch(t *testing.T) {
	items := []item{{lo: 10, hi: 12}, {ids: []uint32{7}}}
	body := `{"results":[{"result":{"nodes":[10,11],"scores":[0.25,0.25],"lambda":0.5,"iterations":2,"converged":true,"cached":false}},{"error":"bad"}]}`
	out := make([]answer, 2)
	if err := parseBatch([]byte(body), out); err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(&items[0], &out[0]); err != nil {
		t.Fatal(err)
	}
	if err := checkAnswer(&items[1], &out[1]); err == nil {
		t.Fatal("a batch item error passed the check")
	}
	if err := parseBatch([]byte(body), make([]answer, 3)); err == nil {
		t.Fatal("two results accepted for three subgraphs")
	}
}

func TestSameScoresIsBitExact(t *testing.T) {
	a := answer{scores: []float64{0.5, 0.25}, lambda: 0.25, iterations: 3}
	b := answer{scores: []float64{0.5, math.Nextafter(0.25, 1)}, lambda: 0.25, iterations: 3}
	if !sameScores(&a, &a) || sameScores(&a, &b) {
		t.Fatal("sameScores is not a bit-exact comparison")
	}
}
