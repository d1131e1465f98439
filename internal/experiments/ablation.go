package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/pagerank"
)

// AblationPoint is one sample of a one-dimensional parameter sweep.
type AblationPoint struct {
	X        float64 // the swept parameter value
	Gap      float64 // measured L1(IdealRank, ApproxRank) on local pages
	Bound    float64 // Theorem 2 bound ε/(1−ε)·‖E−E_approx‖₁ (0 if n/a)
	L1       float64 // ApproxRank L1 vs normalized global truth
	Footrule float64 // ApproxRank footrule vs global truth
}

// ablationSubgraph picks the sweep target: a mid-sized domain of the AU
// dataset (large enough to be interesting, small enough to iterate fast).
func (s *Suite) ablationSubgraph() (*graph.Subgraph, error) {
	order := DomainsAscending(s.AU.Data)
	d := order[len(order)/2]
	return graph.NewSubgraph(s.AU.Data.Graph, s.AU.Data.DomainPages(d))
}

// AblationEpsilon sweeps the damping factor and reports the measured
// IdealRank↔ApproxRank gap against the Theorem 2 bound, which scales as
// ε/(1−ε). The global truth is recomputed per ε (the theorem compares
// like-for-like chains).
func (s *Suite) AblationEpsilon(epsilons []float64) ([]AblationPoint, error) {
	if epsilons == nil {
		epsilons = []float64{0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95}
	}
	sub, err := s.ablationSubgraph()
	if err != nil {
		return nil, err
	}
	var pts []AblationPoint
	for _, eps := range epsilons {
		cfg := core.Config{Epsilon: eps, Tolerance: numeric.TightTolerance}
		truth, err := globalWithEps(s.AU, eps)
		if err != nil {
			return nil, err
		}
		ideal, err := core.IdealRank(sub, truth, cfg)
		if err != nil {
			return nil, err
		}
		ap, err := core.ApproxRankCtx(s.AU.Ctx, sub, cfg)
		if err != nil {
			return nil, err
		}
		gap := 0.0
		for i := range ideal.Scores {
			gap += math.Abs(ideal.Scores[i] - ap.Scores[i])
		}
		bound, err := core.ErrorBound(sub, truth, eps)
		if err != nil {
			return nil, err
		}
		pts = append(pts, AblationPoint{X: eps, Gap: gap, Bound: bound})
	}
	return pts, nil
}

// globalWithEps recomputes the global PageRank of grun's graph at a
// non-default damping factor.
func globalWithEps(grun *GlobalRun, eps float64) ([]float64, error) {
	res, err := pagerank.Compute(grun.Data.Graph, pagerank.Options{Epsilon: eps})
	if err != nil {
		return nil, err
	}
	return res.Scores, nil
}

// AblationMixedE sweeps the paper's future-work knob: blending the true
// external scores into E_approx. Gap and ranking error must shrink as the
// blend approaches the truth.
func (s *Suite) AblationMixedE(alphas []float64) ([]AblationPoint, error) {
	if alphas == nil {
		alphas = []float64{0, 0.25, 0.5, 0.75, 1}
	}
	sub, err := s.ablationSubgraph()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Tolerance: numeric.TightTolerance}
	ideal, err := core.IdealRank(sub, s.AU.PR.Scores, cfg)
	if err != nil {
		return nil, err
	}
	var pts []AblationPoint
	for _, a := range alphas {
		mixed, err := core.MixExternalScores(sub, s.AU.PR.Scores, a)
		if err != nil {
			return nil, err
		}
		chain, err := core.NewChainWithExternalScores(sub, mixed)
		if err != nil {
			return nil, err
		}
		res, err := chain.Run(cfg)
		if err != nil {
			return nil, err
		}
		gap := 0.0
		for i := range res.Scores {
			gap += math.Abs(res.Scores[i] - ideal.Scores[i])
		}
		l1, fr, err := s.AU.Evaluate(sub, res.Scores)
		if err != nil {
			return nil, err
		}
		pts = append(pts, AblationPoint{X: a, Gap: gap, L1: l1, Footrule: fr})
	}
	return pts, nil
}

// AblationIntraDomain regenerates small datasets with varying intra-domain
// link fractions and measures ApproxRank accuracy on a mid-sized domain of
// each — the structural knob that explains why DS subgraphs behave so much
// better than BFS subgraphs.
func AblationIntraDomain(intras []float64, pages int, seed int64) ([]AblationPoint, error) {
	if intras == nil {
		intras = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	}
	if pages == 0 {
		pages = 40000
	}
	var pts []AblationPoint
	for _, f := range intras {
		grun, err := newGlobalRun(context.Background(), fmt.Sprintf("intra-%.2f", f), gen.Config{
			Pages:         pages,
			Domains:       16,
			IntraFraction: f,
			Seed:          seed,
		})
		if err != nil {
			return nil, err
		}
		order := DomainsAscending(grun.Data)
		d := order[len(order)/2]
		sub, err := graph.NewSubgraph(grun.Data.Graph, grun.Data.DomainPages(d))
		if err != nil {
			return nil, err
		}
		res, err := core.ApproxRankCtx(grun.Ctx, sub, core.Config{})
		if err != nil {
			return nil, err
		}
		l1, fr, err := grun.Evaluate(sub, res.Scores)
		if err != nil {
			return nil, err
		}
		pts = append(pts, AblationPoint{X: f, L1: l1, Footrule: fr})
	}
	return pts, nil
}

// AblationSubgraphSize grows a DS-style subgraph by taking unions of
// domains (smallest first) at increasing target fractions of the global
// graph, isolating the size trend visible down the rows of Table IV.
func (s *Suite) AblationSubgraphSize(fractions []float64) ([]AblationPoint, error) {
	if fractions == nil {
		fractions = []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5}
	}
	ds := s.AU.Data
	order := DomainsAscending(ds)
	var pts []AblationPoint
	var pages []graph.NodeID
	next := 0
	for _, f := range fractions {
		target := int(f * float64(ds.Graph.NumNodes()))
		for next < len(order) && len(pages) < target {
			pages = append(pages, ds.DomainPages(order[next])...)
			next++
		}
		if len(pages) == 0 || len(pages) >= ds.Graph.NumNodes() {
			break
		}
		sub, err := graph.NewSubgraph(ds.Graph, pages)
		if err != nil {
			return nil, err
		}
		res, err := core.ApproxRankCtx(s.AU.Ctx, sub, core.Config{})
		if err != nil {
			return nil, err
		}
		l1, fr, err := s.AU.Evaluate(sub, res.Scores)
		if err != nil {
			return nil, err
		}
		pts = append(pts, AblationPoint{X: pct(sub.N(), ds.Graph.NumNodes()), L1: l1, Footrule: fr})
	}
	return pts, nil
}

// WriteAblation renders a sweep as a text table. Columns with all-zero
// values are still printed for uniformity; xLabel names the swept knob.
func WriteAblation(w io.Writer, title, xLabel string, pts []AblationPoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, title)
	fmt.Fprintf(tw, "%s\tgap L1(ideal,approx)\tThm2 bound\tL1 vs truth\tfootrule vs truth\n", xLabel)
	for _, p := range pts {
		fmt.Fprintf(tw, "%.3f\t%.6f\t%.6f\t%.6f\t%.6f\n", p.X, p.Gap, p.Bound, p.L1, p.Footrule)
	}
	return tw.Flush()
}
