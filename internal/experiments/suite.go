// Package experiments regenerates every table and figure of the paper's
// evaluation section on synthetic stand-ins for its two crawled datasets:
//
//   - Table II  — dataset characteristics
//   - Table III — L1 + Spearman's footrule on TS (topic) subgraphs
//   - Table IV  — footrule on DS (domain) subgraphs, four algorithms
//   - Figure 7  — footrule on BFS subgraphs as crawl size grows
//   - Table V   — runtimes on TS subgraphs (+ SC expansion telemetry)
//   - Table VI  — runtimes on DS subgraphs (+ global PageRank context)
//
// plus the ablation sweeps DESIGN.md calls out (ε, intra-domain fraction,
// mixed external knowledge, subgraph size). Every driver returns typed
// rows and can render itself as a text table, so cmd/experiments and the
// benchmark harness share one implementation.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/pagerank"
)

// Scale controls how large the synthetic datasets are. The paper's crawls
// hold ~4 M pages; the default scale is a ~1/13 linear scale-down that
// runs the full suite on a laptop in minutes. Ratio-shaped findings
// (who wins, by how much, where SC's runtime blows up) are preserved.
type Scale struct {
	// AUPages is the size of the domain-structured dataset (the AU
	// analogue). Default 300000.
	AUPages int
	// AUDomains is its domain count. Default 38 (the AU dataset's).
	AUDomains int
	// PoliticsPages is the size of the topic-structured dataset (the
	// politics analogue). Default 220000.
	PoliticsPages int
	// PoliticsTopics is its topic count. Default 15.
	PoliticsTopics int
	// Seed drives all generation. Default 2009 (the paper's year).
	Seed int64
}

func (s *Scale) fill() {
	if s.AUPages == 0 {
		s.AUPages = 300000
	}
	if s.AUDomains == 0 {
		s.AUDomains = 38
	}
	if s.PoliticsPages == 0 {
		s.PoliticsPages = 220000
	}
	if s.PoliticsTopics == 0 {
		s.PoliticsTopics = 15
	}
	if s.Seed == 0 {
		s.Seed = 2009
	}
}

// Tiny returns a Scale small enough for unit tests and smoke runs.
func Tiny() Scale {
	return Scale{AUPages: 12000, AUDomains: 12, PoliticsPages: 10000, PoliticsTopics: 8, Seed: 7}
}

// GlobalRun bundles a dataset with its converged global PageRank — the
// ground truth every experiment compares against.
type GlobalRun struct {
	Name    string
	Data    *gen.Dataset
	PR      *pagerank.Result
	Ctx     *core.Context
	Elapsed time.Duration
}

// Suite holds the two datasets and their ground truths.
type Suite struct {
	Scale    Scale
	AU       *GlobalRun
	Politics *GlobalRun
}

// NewSuite generates both datasets and computes their global PageRank.
// It is NewSuiteCtx with context.Background().
func NewSuite(scale Scale) (*Suite, error) {
	return NewSuiteCtx(context.Background(), scale)
}

// NewSuiteCtx is NewSuite under a context; the two global PageRank
// computations — the expensive part of suite construction — run under it.
func NewSuiteCtx(ctx context.Context, scale Scale) (*Suite, error) {
	scale.fill()
	au, err := newGlobalRun(ctx, "AU-syn", gen.Config{
		Pages:            scale.AUPages,
		Domains:          scale.AUDomains,
		SizeLeakExponent: 0.8,
		Seed:             scale.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: AU dataset: %w", err)
	}
	pol, err := newGlobalRun(ctx, "politics-syn", gen.Config{
		Pages:   scale.PoliticsPages,
		Domains: max(scale.AUDomains/2, 4),
		Topics:  scale.PoliticsTopics,
		// Topic crawls need cross-domain topical structure; lower the
		// intra-domain fraction slightly and raise topic affinity so TS
		// subgraphs resemble dmoz category neighbourhoods.
		IntraFraction: 0.7,
		TopicAffinity: 0.75,
		Seed:          scale.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: politics dataset: %w", err)
	}
	return &Suite{Scale: scale, AU: au, Politics: pol}, nil
}

func newGlobalRun(ctx context.Context, name string, cfg gen.Config) (*GlobalRun, error) {
	ds, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pr, err := pagerank.ComputeCtx(ctx, ds.Graph, pagerank.Options{})
	if err != nil {
		return nil, err
	}
	return &GlobalRun{
		Name:    name,
		Data:    ds,
		PR:      pr,
		Ctx:     core.NewContext(ds.Graph),
		Elapsed: time.Since(start),
	}, nil
}

// Truth returns the normalized global PageRank restricted to sub — the
// reference vector R1 of the paper's evaluation method.
func (gr *GlobalRun) Truth(sub *graph.Subgraph) []float64 {
	return restrictNormalized(gr.PR.Scores, sub)
}

// restrictNormalized returns global restricted to sub's local pages, in
// local-id order, normalized to sum to 1.
func restrictNormalized(global []float64, sub *graph.Subgraph) []float64 {
	out := make([]float64, sub.N())
	for li, gid := range sub.Local {
		out[li] = global[gid]
	}
	normalize(out)
	return out
}

// Evaluate compares an estimate against the global truth for sub, after
// normalizing both to probability distributions, and returns the L1
// distance and the Spearman's footrule distance.
func (gr *GlobalRun) Evaluate(sub *graph.Subgraph, estimate []float64) (l1, footrule float64, err error) {
	truth := gr.Truth(sub)
	est := append([]float64(nil), estimate...)
	normalize(est)
	l1, err = metrics.L1(truth, est)
	if err != nil {
		return 0, 0, err
	}
	footrule, err = metrics.FootruleScores(truth, est)
	if err != nil {
		return 0, 0, err
	}
	return l1, footrule, nil
}

// DomainsAscending returns domain ids sorted by ascending page count —
// the presentation order of Tables IV and VI.
func DomainsAscending(ds *gen.Dataset) []int {
	ids := make([]int, ds.NumDomains())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if ds.DomainSize(ids[a]) != ds.DomainSize(ids[b]) {
			return ds.DomainSize(ids[a]) < ds.DomainSize(ids[b])
		}
		return ids[a] < ids[b]
	})
	return ids
}

// PickDomains selects count domain ids spanning the size spectrum
// (smallest to largest, evenly spread), ascending by size.
func PickDomains(ds *gen.Dataset, count int) []int {
	all := DomainsAscending(ds)
	if count >= len(all) {
		return all
	}
	picked := make([]int, count)
	for i := 0; i < count; i++ {
		picked[i] = all[i*(len(all)-1)/(count-1)]
	}
	return picked
}

func normalize(v []float64) {
	s := 0.0
	for _, x := range v {
		s += x
	}
	if s <= 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}

// avgOutDegree returns the average GLOBAL out-degree of the pages in sub
// (the "Average outdegree" column of Table IV).
func avgOutDegree(sub *graph.Subgraph) float64 {
	total := 0
	for _, gid := range sub.Local {
		total += sub.Global.OutDegree(gid)
	}
	return float64(total) / float64(sub.N())
}

func pct(part, whole int) float64 { return 100 * float64(part) / float64(whole) }

func round(x float64, digits int) float64 {
	p := math.Pow(10, float64(digits))
	return math.Round(x*p) / p
}
