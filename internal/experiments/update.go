package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/iad"
	"repro/internal/metrics"
	"repro/internal/numeric"
	"repro/internal/pagerank"
)

// UpdateRow is one strategy's outcome in the updated-subgraph scenario.
type UpdateRow struct {
	Strategy string
	// L1 is the distance from the exact recomputed vector, over the
	// changed region, both restrictions normalized.
	L1 float64
	// Footrule is the ranking distance over the changed region.
	Footrule float64
	// GlobalSweeps counts full-graph power sweeps the strategy used
	// (0 when it touches only the subgraph).
	GlobalSweeps int
	Elapsed      time.Duration
}

// RunUpdate reproduces the paper's "updates confined to a subgraph"
// motivation quantitatively: one AU domain's internal links are rewired,
// and four strategies score the changed region — keeping the stale
// scores, IdealRank over the new subgraph with stale external scores
// (the paper's proposal for this scenario), IAD updating (Langville &
// Meyer), and an exact recomputation (the reference).
func (s *Suite) RunUpdate(rewireFrac float64, seed int64) ([]UpdateRow, error) {
	if rewireFrac <= 0 || rewireFrac >= 1 {
		return nil, fmt.Errorf("experiments: rewire fraction %v outside (0,1)", rewireFrac)
	}
	ds := s.AU.Data
	order := DomainsAscending(ds)
	region := ds.DomainPages(order[len(order)/2])
	member := graph.NewNodeSet(ds.Graph.NumNodes())
	for _, p := range region {
		member.Add(p)
	}

	// Rewire rewireFrac of the region's internal links.
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(ds.Graph.NumNodes())
	for u := 0; u < ds.Graph.NumNodes(); u++ {
		uid := graph.NodeID(u)
		for _, v := range ds.Graph.OutNeighbors(uid) {
			if member.Contains(uid) && member.Contains(v) && rng.Float64() < rewireFrac {
				w := region[rng.Intn(len(region))]
				if w != uid {
					b.AddEdge(uid, w)
					continue
				}
			}
			b.AddEdge(uid, v)
		}
	}
	ng, err := b.Build()
	if err != nil {
		return nil, err
	}
	sub, err := graph.NewSubgraph(ng, region)
	if err != nil {
		return nil, err
	}

	// Reference: exact recomputation on the new graph.
	t0 := time.Now()
	fresh, err := pagerank.Compute(ng, pagerank.Options{Tolerance: numeric.TightTolerance})
	if err != nil {
		return nil, err
	}
	freshElapsed := time.Since(t0)
	truth := restrictNormalized(fresh.Scores, sub)

	evalRegion := func(scores []float64) (float64, float64, error) {
		est := append([]float64(nil), scores...)
		normalize(est)
		l1, err := metrics.L1(truth, est)
		if err != nil {
			return 0, 0, err
		}
		fr, err := metrics.FootruleScores(truth, est)
		return l1, fr, err
	}

	var rows []UpdateRow

	// (a) Stale scores: do nothing.
	stale := restrictNormalized(s.AU.PR.Scores, sub)
	l1, fr, err := evalRegion(stale)
	if err != nil {
		return nil, err
	}
	rows = append(rows, UpdateRow{Strategy: "stale scores (do nothing)", L1: l1, Footrule: fr})

	// (b) IdealRank with stale external scores — the paper's proposal.
	t0 = time.Now()
	ir, err := core.IdealRank(sub, s.AU.PR.Scores, core.Config{})
	if err != nil {
		return nil, err
	}
	irElapsed := time.Since(t0)
	l1, fr, err = evalRegion(ir.Scores)
	if err != nil {
		return nil, err
	}
	rows = append(rows, UpdateRow{Strategy: "IdealRank, stale externals (paper)", L1: l1, Footrule: fr, Elapsed: irElapsed})

	// (c) IAD updating — exact, fewer global sweeps than recomputing.
	t0 = time.Now()
	upd, err := iad.Update(ng, region, s.AU.PR.Scores, iad.Config{Tolerance: numeric.TightTolerance})
	if err != nil {
		return nil, err
	}
	iadElapsed := time.Since(t0)
	l1, fr, err = evalRegion(restrictNormalized(upd.Scores, sub))
	if err != nil {
		return nil, err
	}
	rows = append(rows, UpdateRow{Strategy: "IAD update (Langville & Meyer)", L1: l1, Footrule: fr,
		GlobalSweeps: upd.GlobalSweeps, Elapsed: iadElapsed})

	// (d) Exact recomputation — zero error by construction.
	rows = append(rows, UpdateRow{Strategy: "full recomputation", L1: 0, Footrule: 0,
		GlobalSweeps: fresh.Iterations, Elapsed: freshElapsed})
	return rows, nil
}

// WriteUpdate renders the update-scenario comparison.
func WriteUpdate(w io.Writer, rows []UpdateRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "EXTENDED — updated-subgraph scenario: one AU domain rewired (paper §I, §II-E)")
	fmt.Fprintln(tw, "strategy\tL1 vs exact\tfootrule vs exact\tglobal sweeps\ttime")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.6f\t%.6f\t%d\t%v\n",
			r.Strategy, r.L1, r.Footrule, r.GlobalSweeps, r.Elapsed.Round(msRound))
	}
	return tw.Flush()
}
