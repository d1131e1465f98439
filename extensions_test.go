package approxrank_test

import (
	"math"
	"testing"

	approxrank "repro"
)

// citationData builds a three-object ObjectRank data graph through the
// facade: two papers, one citing the other, and their author.
func citationData(t testing.TB) *approxrank.DataGraph {
	t.Helper()
	s := approxrank.NewSchema()
	for _, ty := range []string{"paper", "author"} {
		if err := s.AddType(ty); err != nil {
			t.Fatalf("AddType: %v", err)
		}
	}
	if err := s.AddTransfer("paper", "paper", "cites", 0.7); err != nil {
		t.Fatalf("AddTransfer: %v", err)
	}
	if err := s.AddTransfer("paper", "author", "written-by", 0.3); err != nil {
		t.Fatalf("AddTransfer: %v", err)
	}
	if err := s.AddTransfer("author", "paper", "writes", 1.0); err != nil {
		t.Fatalf("AddTransfer: %v", err)
	}
	d, err := approxrank.NewDataGraph(s)
	if err != nil {
		t.Fatalf("NewDataGraph: %v", err)
	}
	p1, _ := d.AddObject("streaming joins", "paper")
	p2, _ := d.AddObject("adaptive joins", "paper")
	a, _ := d.AddObject("carol", "author")
	if err := d.AddRelation(p1, p2, "cites"); err != nil {
		t.Fatalf("AddRelation: %v", err)
	}
	if err := d.AddRelation(p1, a, "written-by"); err != nil {
		t.Fatalf("AddRelation: %v", err)
	}
	if err := d.AddRelation(a, p1, "writes"); err != nil {
		t.Fatalf("AddRelation: %v", err)
	}
	return d
}

// TestFacadeObjectRank drives the ObjectRank surface end to end: schema,
// data graph, keyword query, and the authority-graph bridge into the
// subgraph framework.
func TestFacadeObjectRank(t *testing.T) {
	d := citationData(t)
	global, err := approxrank.ObjectRank(d, nil, approxrank.ObjectRankConfig{Tolerance: 1e-10})
	if err != nil {
		t.Fatalf("ObjectRank: %v", err)
	}
	if len(global.Scores) != 3 || !global.Converged {
		t.Fatalf("global ObjectRank = %+v", global)
	}
	q, err := approxrank.ObjectRankQuery(d, "joins", approxrank.ObjectRankConfig{Tolerance: 1e-10})
	if err != nil {
		t.Fatalf("ObjectRankQuery: %v", err)
	}
	if len(q.Scores) != 3 {
		t.Fatalf("query scores = %v", q.Scores)
	}
	if _, err := approxrank.ObjectRankQuery(d, "nomatch", approxrank.ObjectRankConfig{}); err == nil {
		t.Error("query with no matches accepted")
	}
	ag, err := d.AuthorityGraph()
	if err != nil {
		t.Fatalf("AuthorityGraph: %v", err)
	}
	if !ag.Weighted() || ag.NumNodes() != 3 {
		t.Fatalf("authority graph wrong shape")
	}
}

// TestFacadeJXP drives the P2P surface through the facade.
func TestFacadeJXP(t *testing.T) {
	web, err := approxrank.GenerateWeb(approxrank.WebConfig{Pages: 3000, Domains: 4, Seed: 31})
	if err != nil {
		t.Fatalf("GenerateWeb: %v", err)
	}
	assignments := map[string][]approxrank.NodeID{}
	for d := 0; d < web.NumDomains(); d++ {
		assignments[web.DomainNames[d]] = web.DomainPages(d)
	}
	nw, err := approxrank.NewPeerNetwork(web.Graph, assignments, approxrank.Config{Tolerance: 1e-8}, 3)
	if err != nil {
		t.Fatalf("NewPeerNetwork: %v", err)
	}
	truth, err := approxrank.GlobalPageRank(web.Graph, approxrank.PageRankOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatalf("GlobalPageRank: %v", err)
	}
	before, err := nw.MaxError(truth.Scores)
	if err != nil {
		t.Fatalf("MaxError: %v", err)
	}
	for r := 0; r < 4; r++ {
		if _, err := nw.Round(); err != nil {
			t.Fatalf("Round: %v", err)
		}
	}
	after, err := nw.MaxError(truth.Scores)
	if err != nil {
		t.Fatalf("MaxError: %v", err)
	}
	if after >= before {
		t.Errorf("JXP error did not improve: %v → %v", before, after)
	}
	// Direct two-peer meeting through the facade.
	a, err := approxrank.NewPeer("x", web.Graph, web.DomainPages(0), approxrank.Config{})
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	b, err := approxrank.NewPeer("y", web.Graph, web.DomainPages(1), approxrank.Config{})
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	if err := approxrank.Meet(a, b); err != nil {
		t.Fatalf("Meet: %v", err)
	}
	if a.KnownExternal() == 0 || b.KnownExternal() == 0 {
		t.Error("meeting taught nothing")
	}
}

// TestFacadeServerRank drives the ServerRank surface.
func TestFacadeServerRank(t *testing.T) {
	web, err := approxrank.GenerateWeb(approxrank.WebConfig{Pages: 3000, Domains: 5, Seed: 8})
	if err != nil {
		t.Fatalf("GenerateWeb: %v", err)
	}
	res, err := approxrank.ServerRank(web.Graph,
		func(p approxrank.NodeID) int { return int(web.Domain[p]) },
		web.NumDomains(), approxrank.ServerRankConfig{})
	if err != nil {
		t.Fatalf("ServerRank: %v", err)
	}
	sum := 0.0
	for _, s := range res.Scores {
		sum += s
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("ServerRank scores sum to %v", sum)
	}
	if len(res.ServerScores) != web.NumDomains() {
		t.Errorf("got %d server scores", len(res.ServerScores))
	}
}

// TestFacadePointRank drives the single-page estimator.
func TestFacadePointRank(t *testing.T) {
	web, err := approxrank.GenerateWeb(approxrank.WebConfig{Pages: 3000, Domains: 4, Seed: 2})
	if err != nil {
		t.Fatalf("GenerateWeb: %v", err)
	}
	truth, err := approxrank.GlobalPageRank(web.Graph, approxrank.PageRankOptions{Tolerance: 1e-10})
	if err != nil {
		t.Fatalf("GlobalPageRank: %v", err)
	}
	var target approxrank.NodeID
	for p := 0; p < web.Graph.NumNodes(); p++ {
		if web.Graph.InDegree(approxrank.NodeID(p)) > web.Graph.InDegree(target) {
			target = approxrank.NodeID(p)
		}
	}
	res, err := approxrank.EstimatePageRank(web.Graph, target, approxrank.PointRankConfig{Radius: 4})
	if err != nil {
		t.Fatalf("EstimatePageRank: %v", err)
	}
	rel := math.Abs(res.Score-truth.Scores[target]) / truth.Scores[target]
	if rel > 0.3 {
		t.Errorf("radius-4 estimate off by %.0f%%", rel*100)
	}
}

// TestFacadeKendallAndDictionary covers the remaining exports.
func TestFacadeKendallAndDictionary(t *testing.T) {
	a := []float64{3, 2, 1}
	b := []float64{1, 2, 3}
	d, err := approxrank.KendallTau(a, b)
	if err != nil || d != 1 {
		t.Errorf("KendallTau = %v, %v", d, err)
	}
	g, dict, err := approxrank.NamedEdgeGraph([][2]string{
		{"a.com/x", "b.com/y"},
		{"b.com/y", "a.com/x"},
	})
	if err != nil {
		t.Fatalf("NamedEdgeGraph: %v", err)
	}
	if g.NumNodes() != 2 || dict.Len() != 2 {
		t.Fatalf("graph %d nodes, dict %d names", g.NumNodes(), dict.Len())
	}
	id, ok := dict.Lookup("a.com/x")
	if !ok || dict.Name(id) != "a.com/x" {
		t.Fatalf("dictionary round trip failed")
	}
	fresh := approxrank.NewDictionary()
	if fresh.Len() != 0 {
		t.Fatal("new dictionary not empty")
	}
}

// TestFacadeUpdateAndCrawl drives the IAD update, best-first crawl, and
// SCC exports through the facade.
func TestFacadeUpdateAndCrawl(t *testing.T) {
	web, err := approxrank.GenerateWeb(approxrank.WebConfig{Pages: 4000, Domains: 6, Seed: 44})
	if err != nil {
		t.Fatalf("GenerateWeb: %v", err)
	}
	g := web.Graph
	prior, err := approxrank.GlobalPageRank(g, approxrank.PageRankOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatalf("GlobalPageRank: %v", err)
	}
	res, err := approxrank.UpdatePageRank(g, web.DomainPages(2), prior.Scores, approxrank.IADConfig{Tolerance: 1e-7})
	if err != nil {
		t.Fatalf("UpdatePageRank: %v", err)
	}
	if !res.Converged || res.OuterIterations > 3 {
		t.Errorf("unchanged graph took %d outer iterations", res.OuterIterations)
	}

	crawlBudget := 200
	order, err := approxrank.BestFirstCrawl(g, 0, approxrank.BestFirstConfig{MaxPages: crawlBudget})
	if err != nil {
		t.Fatalf("BestFirstCrawl: %v", err)
	}
	if len(order) == 0 || len(order) > crawlBudget {
		t.Fatalf("crawl returned %d pages", len(order))
	}

	comps := approxrank.StronglyConnectedComponents(g)
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != g.NumNodes() {
		t.Fatalf("SCCs cover %d of %d nodes", total, g.NumNodes())
	}
	if f := approxrank.LargestSCCFraction(g); f <= 0 || f > 1 {
		t.Fatalf("LargestSCCFraction = %v", f)
	}

	// Parallel global PageRank through the facade agrees with sequential.
	par, err := approxrank.GlobalPageRank(g, approxrank.PageRankOptions{Tolerance: 1e-9, Parallelism: 4})
	if err != nil {
		t.Fatalf("parallel GlobalPageRank: %v", err)
	}
	l1, err := approxrank.L1(prior.Scores, par.Scores)
	if err != nil {
		t.Fatalf("L1: %v", err)
	}
	if l1 > 1e-7 {
		t.Errorf("parallel result differs by L1=%v", l1)
	}
}
