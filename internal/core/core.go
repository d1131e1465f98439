// Package core implements the paper's contribution: the IdealRank and
// ApproxRank algorithms for estimating PageRank-style scores on a subgraph
// of a global graph (Wu & Raschid, "ApproxRank: Estimating Rank for a
// Subgraph", ICDE 2009).
//
// Both algorithms collapse the N−n external pages into a single external
// super-node Λ and run a random walk on the resulting extended local graph
// G_e with n+1 states. The transition matrix of the walk is derived from
// the global PageRank transition matrix A (A[i][j] = 1/D_i for edge i→j
// with D_i the global out-degree) as A_e = Q1·A·Q2, where Q2 aggregates
// authority flowing from local pages into the external block and Q1
// redistributes authority leaving the external block according to a weight
// vector E over the external pages:
//
//   - IdealRank sets E to the (known) true PageRank scores of the external
//     pages, normalized by their sum. Theorem 1: the stationary scores of
//     the local states then equal the true global PageRank scores exactly,
//     and the Λ score equals the total external score.
//   - ApproxRank sets E uniform (1/(N−n) each), requiring no knowledge of
//     external scores. Theorem 2: the L1 gap from IdealRank is bounded by
//     ε/(1−ε)·‖E − E_approx‖₁.
//
// The package never materializes the N×N matrix: the extended chain is
// assembled from the adjacency of the local pages only (plus per-global-
// graph aggregates, see Context), so ranking a subgraph costs O(boundary +
// local edges) per iteration.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/numeric"
	"repro/internal/pagerank"
)

// ctxCheckInterval is how many power-iteration steps run between
// cancellation checks. An iteration touches every local edge, so a check
// every few iterations bounds the post-cancellation work to a small
// multiple of one sweep while keeping the common (never-cancelled) path
// free of per-edge overhead.
const ctxCheckInterval = 16

// Config carries the random-walk parameters. The zero value selects the
// paper's settings (ε = 0.85, L1 tolerance 1e-5, at most 1000 iterations,
// uniform personalization).
type Config struct {
	// Epsilon is the damping factor. Default 0.85.
	Epsilon float64
	// Tolerance is the L1 convergence threshold. Default 1e-5.
	Tolerance float64
	// MaxIterations bounds the power iteration. Default 1000.
	MaxIterations int
	// Personalization optionally replaces the paper's uniform jump
	// distribution with an arbitrary one over the GLOBAL graph (length N,
	// non-negative, summing to 1). It is collapsed consistently: local
	// pages keep their entries and Λ receives the external pages' total —
	// the generalization of the paper's P_ideal, under which Theorem 1
	// still holds exactly (the proof only needs R = εAᵀR + (1−ε)P and
	// left-multiplication by Q2ᵀ). nil selects the uniform vector.
	Personalization []float64
	// Deadline, when positive, bounds each run's wall-clock time: the
	// run's context is derived with context.WithTimeout(ctx, Deadline),
	// so a walk that has not converged by then returns a
	// context.DeadlineExceeded error instead of burning the full
	// MaxIterations budget. Zero means no per-run deadline (callers can
	// still cancel through the context they pass to RunCtx).
	Deadline time.Duration
	// Parallelism selects the number of workers for the power iteration
	// over the extended chain: 0 or 1 run the sequential flat sweep,
	// k > 1 runs the pull-based parallel sweep over k edge-balanced
	// target ranges of the chain's in-adjacency, and a negative value
	// selects the CPU count. The parallel iterate is bit-identical
	// across worker counts (each state's in-row is accumulated whole, in
	// CSR order); runs are bit-deterministic for a fixed Parallelism,
	// and agree with the sequential sweep to floating-point
	// reassociation, far below any practical tolerance.
	Parallelism int
}

func (c *Config) fill() error {
	if c.Epsilon == 0 {
		c.Epsilon = numeric.DefaultDamping
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("core: damping factor %v outside (0,1)", c.Epsilon)
	}
	if c.Tolerance == 0 {
		c.Tolerance = numeric.DefaultTolerance
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("core: negative tolerance %v", c.Tolerance)
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 1000
	}
	if c.MaxIterations < 1 {
		return fmt.Errorf("core: MaxIterations %d < 1", c.MaxIterations)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("core: negative Deadline %v", c.Deadline)
	}
	if c.Parallelism < 0 {
		c.Parallelism = pagerank.DefaultParallelism()
	}
	return nil
}

// Normalize resolves the Config's zero values to their concrete
// defaults and validates the rest — the same normalization every run
// applies internally. Callers that key caches on configurations (the
// serving daemon) use it so a zero value and its explicit default can
// never alias distinct cache keys.
func (c *Config) Normalize() error { return c.fill() }

// Result is the outcome of running an extended chain. Scores holds the
// stationary probabilities of the n local pages in subgraph-local id order;
// these are directly comparable to the global PageRank vector restricted to
// the subgraph (they are NOT renormalized — Scores plus Lambda sums to 1).
type Result struct {
	pagerank.Result
	// Lambda is the stationary score of the external super-node Λ. Under
	// IdealRank it converges to the sum of the true scores of all external
	// pages (Theorem 1).
	Lambda float64
}

// Context caches the per-global-graph aggregates that Λ-row construction
// needs: the dangling page count and, once a second ApproxRank chain
// asks for it, the in-mass of every page. Building a Context scans the
// global graph once; afterwards chains for any number of subgraphs of
// that graph are assembled from their local pages' out-edges only. This
// realizes the paper's precomputation argument for multi-subgraph
// workloads ("we can preprocess the global graph for one time, and decide
// A_approx for each subgraph with only local cost").
type Context struct {
	g        *graph.Graph
	dangling int

	// inMass[k] = Σ_{j→k} A[j][k], the column sums of the global
	// transition matrix (8N bytes, one O(N+M) pass). One chain does not
	// amortize that pass, so the first NewApproxChainCtx sums its own
	// pages' in-mass as NewApproxChain does, and the second builds the
	// vector: a Context that ranks at most one subgraph never pays for it.
	chained    atomic.Bool
	inMassOnce sync.Once
	inMass     []float64
}

// NewContext precomputes the global aggregates for g.
func NewContext(g *graph.Graph) *Context {
	d := 0
	for u := 0; u < g.NumNodes(); u++ {
		if g.Dangling(graph.NodeID(u)) {
			d++
		}
	}
	return &Context{g: g, dangling: d}
}

// Graph returns the global graph the context was built for.
func (ctx *Context) Graph() *graph.Graph { return ctx.g }

// DanglingCount returns the number of dangling pages in the global graph.
func (ctx *Context) DanglingCount() int { return ctx.dangling }

// inMassVec returns the global in-mass vector, building it on first use,
// or nil on the Context's first chain.
func (ctx *Context) inMassVec() []float64 {
	if !ctx.chained.Load() && ctx.chained.CompareAndSwap(false, true) {
		return nil
	}
	ctx.inMassOnce.Do(func() {
		m := make([]float64, ctx.g.NumNodes())
		for k := range m {
			m[k] = inMassOf(ctx.g, graph.NodeID(k))
		}
		ctx.inMass = m
	})
	return ctx.inMass
}

// inMassOf returns Σ_{j→k} A[j][k], summed over k's in-row in CSR
// order. The Context's vector and the one-shot path both call it, so
// their Λ rows are bit-identical.
func inMassOf(g *graph.Graph, k graph.NodeID) float64 {
	ws := g.InWeights(k)
	s := 0.0
	for i, j := range g.InNeighbors(k) {
		if ws != nil {
			s += ws[i] / g.WeightOut(j)
		} else {
			s += 1.0 / g.WeightOut(j)
		}
	}
	return s
}

// ExtendedChain is the n+1-state Markov chain of the extended local graph
// G_e: states 0..n−1 are the local pages (in subgraph-local id order) and
// state n is the external super-node Λ. The local block and the column into
// Λ are shared between IdealRank and ApproxRank; the Λ row is what
// distinguishes them.
type ExtendedChain struct {
	g     *graph.Graph
	local []graph.NodeID // sorted global ids of the local pages
	n     int            // local pages
	bigN  int            // global pages

	// Local block, CSR over local ids: row i transitions to locAdj[k] with
	// probability locProb[k] for k in [locOff[i], locOff[i+1]), plus
	// toLambda[i] into Λ. Rows of globally-dangling local pages are empty
	// and flagged in danglingLocal instead.
	locOff        []int64
	locAdj        []uint32
	locProb       []float64
	toLambda      []float64
	danglingLocal []bool
	// locDang lists the locally-dangling states in ascending id order, so
	// the per-iteration dangling-mass sum costs O(#dangling) not O(n).
	locDang []uint32

	// Λ row, sparse over local ids, plus the self-loop residual and the
	// aggregate weight of dangling external pages (whose collapsed rows
	// are the personalization vector).
	lamAdj          []uint32
	lamProb         []float64
	lamSelf         float64
	extDanglingMass float64

	// pull caches the in-adjacency (pull) form of the collapsed matrix
	// over all n+1 states, built lazily by the first Parallelism > 1 run
	// and reused for the chain's lifetime; sequential runs never pay for
	// it.
	pullOnce sync.Once
	pull     *kernel.CSR
}

// Subgraph returns the subgraph the chain ranks. The chain keeps only
// the local id list, not the O(N) membership index, so each call
// rebuilds the Subgraph from the ids. The ids came from a valid
// Subgraph, so the rebuild cannot fail; nil would mean they had.
func (c *ExtendedChain) Subgraph() *graph.Subgraph {
	sub, err := graph.NewSubgraph(c.g, c.local)
	if err != nil {
		return nil
	}
	return sub
}

// NumLocal returns n, the number of local pages.
func (c *ExtendedChain) NumLocal() int { return c.n }

// LocalTransitions returns the local targets and probabilities of local
// page i's row (excluding the Λ column). The slices alias internal storage.
func (c *ExtendedChain) LocalTransitions(i int) ([]uint32, []float64) {
	return c.locAdj[c.locOff[i]:c.locOff[i+1]], c.locProb[c.locOff[i]:c.locOff[i+1]]
}

// ToLambda returns the probability that local page i transitions to Λ.
func (c *ExtendedChain) ToLambda(i int) float64 { return c.toLambda[i] }

// LambdaRow returns the sparse Λ→local transition probabilities. The
// slices alias internal storage.
func (c *ExtendedChain) LambdaRow() ([]uint32, []float64) { return c.lamAdj, c.lamProb }

// LambdaSelf returns the Λ→Λ transition probability contributed by
// non-dangling external pages. The full self-loop probability of the
// collapsed matrix additionally includes the dangling external pages'
// uniform-jump mass: see LambdaSelfLoop.
func (c *ExtendedChain) LambdaSelf() float64 { return c.lamSelf }

// ExtDanglingMass returns the total E-weight of dangling external pages.
func (c *ExtendedChain) ExtDanglingMass() float64 { return c.extDanglingMass }

// LambdaTo returns the effective Λ→(local k) entry of the collapsed
// transition matrix, including the dangling external pages' uniform mass.
// It is O(#nonzero Λ entries); intended for tests and inspection.
func (c *ExtendedChain) LambdaTo(k int) float64 {
	p := c.extDanglingMass / float64(c.bigN)
	for idx, lk := range c.lamAdj {
		if int(lk) == k {
			p += c.lamProb[idx]
		}
	}
	return p
}

// LambdaSelfLoop returns the effective Λ→Λ entry of the collapsed
// transition matrix, including the dangling external pages' uniform mass.
func (c *ExtendedChain) LambdaSelfLoop() float64 {
	return c.lamSelf + c.extDanglingMass*float64(c.bigN-c.n)/float64(c.bigN)
}

// NewApproxChain builds the ApproxRank chain for sub: external pages are
// assumed equally important (E_approx uniform). The global graph is
// scanned once for its dangling count, and each local page's in-mass is
// summed from its own in-row, so the chain costs no O(N) memory; use
// NewApproxChainCtx with a shared Context to amortize both across many
// subgraphs.
func NewApproxChain(sub *graph.Subgraph) (*ExtendedChain, error) {
	if sub == nil {
		return nil, fmt.Errorf("core: nil subgraph")
	}
	return newUniformChain(NewContext(sub.Global), sub, nil), nil
}

// NewApproxChainCtx builds the ApproxRank chain for sub using the
// precomputed global Context. ctx must have been built from sub.Global.
// The second call on a Context builds its in-mass vector; from then on
// a chain reads only its local pages' out-edges.
func NewApproxChainCtx(ctx *Context, sub *graph.Subgraph) (*ExtendedChain, error) {
	if err := checkCtx(ctx, sub); err != nil {
		return nil, err
	}
	return newUniformChain(ctx, sub, ctx.inMassVec()), nil
}

// newUniformChain builds the ApproxRank chain. inMass is the Context's
// in-mass vector, or nil to sum each local page's in-mass on the fly.
func newUniformChain(ctx *Context, sub *graph.Subgraph, inMass []float64) *ExtendedChain {
	// The shell's per-page in-edge tallies go into the Λ row's own
	// buffers, which uniformLambdaRow then compacts into the row.
	adj, prob := make([]uint32, sub.N()), make([]float64, sub.N())
	c := newChainShell(sub, prob, adj)
	w := 1.0 / float64(sub.External())
	c.uniformLambdaRow(w, inMass, prob, adj)
	// Locally-dangling pages are a subset of the global dangling set, so
	// the external dangling count is a subtraction — O(1) given the
	// shell, replacing the former O(global-dangling) membership scan that
	// made chain construction scale with the GLOBAL graph.
	extDangling := ctx.DanglingCount() - len(c.locDang)
	c.extDanglingMass = float64(extDangling) * w
	c.finishLambdaRow()
	return c
}

// NewIdealChain builds the IdealRank chain for sub from the full global
// score vector (length N, e.g. a converged global PageRank). Only the
// entries of external pages are read; they must be non-negative with a
// positive sum.
func NewIdealChain(sub *graph.Subgraph, globalScores []float64) (*ExtendedChain, error) {
	return NewChainWithExternalScores(sub, globalScores)
}

// NewChainWithExternalScores builds an extended chain whose Λ row weights
// external pages by extScores (length N; entries of local pages are
// ignored). extScores need not be normalized. With the true global
// PageRank vector this is IdealRank; with any other estimate it realizes
// the paper's future-work direction of improving ApproxRank through
// partial knowledge of external importance (see MixExternalScores).
func NewChainWithExternalScores(sub *graph.Subgraph, extScores []float64) (*ExtendedChain, error) {
	if sub == nil {
		return nil, fmt.Errorf("core: nil subgraph")
	}
	if len(extScores) != sub.Global.NumNodes() {
		return nil, fmt.Errorf("core: external score vector has length %d, want N=%d",
			len(extScores), sub.Global.NumNodes())
	}
	extSum := 0.0
	for gid := range extScores {
		s := extScores[gid]
		if s < 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("core: invalid external score %v for page %d", s, gid)
		}
		if _, local := sub.LocalID(graph.NodeID(gid)); !local {
			extSum += s
		}
	}
	if extSum <= 0 {
		return nil, fmt.Errorf("core: external scores sum to zero")
	}
	c := newChainShell(sub, nil, nil)
	c.buildLambdaRow(sub, func(j graph.NodeID) float64 { return extScores[j] / extSum })
	extDanglingMass := 0.0
	for gid := range extScores {
		id := graph.NodeID(gid)
		if _, local := sub.LocalID(id); local {
			continue
		}
		if sub.Global.Dangling(id) {
			extDanglingMass += extScores[gid] / extSum
		}
	}
	c.extDanglingMass = extDanglingMass
	c.finishLambdaRow()
	return c, nil
}

// checkCtx validates that ctx and sub refer to the same global graph.
func checkCtx(ctx *Context, sub *graph.Subgraph) error {
	if ctx == nil || sub == nil {
		return fmt.Errorf("core: nil context or subgraph")
	}
	if ctx.g != sub.Global {
		return fmt.Errorf("core: context built for a different global graph")
	}
	return nil
}

// newChainShell builds the parts shared by every chain flavour: the local
// block with global out-degree denominators and the column into Λ.
// localIn and localCnt are nil, or zeroed n-entry buffers: the fill pass
// then adds to entry k the mass A[j][k] and the count of k's in-edges
// from local pages j.
func newChainShell(sub *graph.Subgraph, localIn []float64, localCnt []uint32) *ExtendedChain {
	g := sub.Global
	n := sub.N()
	c := &ExtendedChain{
		g:             g,
		local:         sub.Local,
		n:             n,
		bigN:          g.NumNodes(),
		locOff:        make([]int64, n+1),
		toLambda:      make([]float64, n),
		danglingLocal: make([]bool, n),
	}
	// First pass: count local→local edges for the CSR.
	for li, gid := range sub.Local {
		if g.Dangling(gid) {
			c.danglingLocal[li] = true
			continue
		}
		cnt := 0
		for _, v := range g.OutNeighbors(gid) {
			if sub.Member.Contains(v) {
				cnt++
			}
		}
		c.locOff[li+1] = int64(cnt)
	}
	nd := 0
	for _, d := range c.danglingLocal {
		if d {
			nd++
		}
	}
	if nd > 0 {
		c.locDang = make([]uint32, 0, nd)
		for i, d := range c.danglingLocal {
			if d {
				c.locDang = append(c.locDang, uint32(i))
			}
		}
	}
	for i := 0; i < n; i++ {
		c.locOff[i+1] += c.locOff[i]
	}
	c.locAdj = make([]uint32, c.locOff[n])
	c.locProb = make([]float64, c.locOff[n])
	// Second pass: fill probabilities using the GLOBAL out-degree (or
	// total out-weight) as denominator — the paper's A entries.
	cursor := make([]int64, n)
	copy(cursor, c.locOff[:n])
	for li, gid := range sub.Local {
		if c.danglingLocal[li] {
			continue
		}
		wout := g.WeightOut(gid)
		adj := g.OutNeighbors(gid)
		ws := g.OutWeights(gid)
		extProb := 0.0
		unit := 1.0 / wout
		for k, v := range adj {
			p := unit
			if ws != nil {
				p = ws[k] / wout
			}
			if lv, local := sub.LocalID(v); local {
				slot := cursor[li]
				c.locAdj[slot] = lv
				c.locProb[slot] = p
				cursor[li]++
				if localIn != nil {
					localIn[lv] += p
					localCnt[lv]++
				}
			} else {
				extProb += p
			}
		}
		c.toLambda[li] = extProb
	}
	return c
}

// buildLambdaRow fills the sparse Λ→local entries: for each local page k,
// the sum over its external in-neighbours j of weight(j)·A[j][k]. weight
// must return the normalized E entry for an external page. It serves
// non-uniform E; uniform E takes uniformLambdaRow.
func (c *ExtendedChain) buildLambdaRow(sub *graph.Subgraph, weight func(graph.NodeID) float64) {
	g := c.g
	// Presized for the dense worst case (every local page has an external
	// in-neighbour) so the appends never reallocate — the doubling growth
	// here used to dominate chain-construction allocations.
	adj := make([]uint32, 0, c.n)
	prob := make([]float64, 0, c.n)
	for li, gid := range c.local {
		ins := g.InNeighbors(gid)
		ws := g.InWeights(gid)
		p := 0.0
		for k, j := range ins {
			if sub.Member.Contains(j) {
				continue
			}
			aj := 1.0 / g.WeightOut(j)
			if ws != nil {
				aj = ws[k] / g.WeightOut(j)
			}
			p += weight(j) * aj
		}
		if p > 0 {
			adj = append(adj, uint32(li))
			prob = append(prob, p)
		}
	}
	c.setLambdaRow(adj, prob)
}

// uniformLambdaRow fills the Λ row for uniform E weight w without reading
// an external in-neighbour. With inMass[k] = Σ_{j→k} A[j][k], the entry
// of local page k is w·(inMass[k] − localIn[k]), where localIn[k] and
// localCnt[k] are the mass and count of k's in-edges from local pages
// (newChainShell's fill pass). Page k has an entry iff it has an
// external in-neighbour, an exact integer test; the subtraction is
// clamped at zero against rounding. inMass is indexed by global id; nil
// sums each local page's in-mass from its in-row instead.
//
// The row is compacted over localIn and localCnt in place: entry e is
// written at index e ≤ k only after page k's tallies are read.
func (c *ExtendedChain) uniformLambdaRow(w float64, inMass, localIn []float64, localCnt []uint32) {
	g := c.g
	e := 0
	for li, gid := range c.local {
		in, cnt := localIn[li], localCnt[li]
		if g.InDegree(gid) <= int(cnt) {
			continue
		}
		var m float64
		if inMass != nil {
			m = inMass[gid]
		} else {
			m = inMassOf(g, gid)
		}
		d := m - in
		if d < 0 {
			d = 0
		}
		localCnt[e], localIn[e] = uint32(li), w*d
		e++
	}
	c.setLambdaRow(localCnt[:e], localIn[:e])
}

// setLambdaRow stores the Λ row, compacting it when it turned out sparse
// so long-lived chains don't pin 2n of capacity.
func (c *ExtendedChain) setLambdaRow(adj []uint32, prob []float64) {
	if len(adj)*2 < c.n {
		adj = append(make([]uint32, 0, len(adj)), adj...)
		prob = append(make([]float64, 0, len(prob)), prob...)
	}
	c.lamAdj, c.lamProb = adj, prob
}

// finishLambdaRow sets the Λ self-loop to the stochastic residual of the
// Λ row: the unit E mass minus the dangling mass minus the sparse entries.
// Tiny negative residuals from float accumulation are clamped to zero.
func (c *ExtendedChain) finishLambdaRow() {
	s := 1.0 - c.extDanglingMass
	for _, p := range c.lamProb {
		s -= p
	}
	if s < 0 {
		s = 0
	}
	c.lamSelf = s
}

// Run performs the power iteration R = ε·A_eᵀ·R + (1−ε)·P_ideal on the
// extended chain and returns local scores plus the Λ score. It is
// RunCtx with context.Background() — uncancellable; long-running
// callers should prefer RunCtx.
func (c *ExtendedChain) Run(cfg Config) (*Result, error) {
	return c.RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context: the iteration checks ctx every
// ctxCheckInterval steps (every iteration's barrier when Parallelism >
// 1) and, when cancelled (or when cfg.Deadline expires), returns nil
// and ctx's error wrapped with the iteration reached. No partial scores
// are returned — an unconverged iterate is not a distribution anyone
// should serve.
//
// All iteration buffers are drawn from the shared kernel pools and
// recycled on return, so steady-state runs — e.g. a RankManyCtx batch —
// allocate only the exact-size Scores/Deltas slices of each Result.
func (c *ExtendedChain) RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	start := time.Now()
	n := c.n
	// Collapsed personalization packed as one n+1 vector (local entries,
	// then Λ): the paper's P_ideal (uniform case) or the caller's global
	// vector with the external mass routed to Λ. The buffer is pooled;
	// every entry is written before any read.
	pvec := kernel.GetVec(n + 1)
	defer kernel.PutVec(pvec)
	if cfg.Personalization == nil {
		u := 1.0 / float64(c.bigN)
		for i := 0; i < n; i++ {
			pvec[i] = u
		}
		pvec[n] = float64(c.bigN-n) / float64(c.bigN)
	} else {
		if len(cfg.Personalization) != c.bigN {
			return nil, fmt.Errorf("core: personalization has length %d, want N=%d",
				len(cfg.Personalization), c.bigN)
		}
		// A merge walk over the sorted local ids: next is the local id of
		// the next local page at or after gid.
		sum := 0.0
		pvec[n] = 0
		next := 0
		for gid, p := range cfg.Personalization {
			if p < 0 || math.IsNaN(p) {
				return nil, fmt.Errorf("core: invalid personalization entry %v at %d", p, gid)
			}
			sum += p
			if next < n && int(c.local[next]) == gid {
				pvec[next] = p
				next++
			} else {
				pvec[n] += p
			}
		}
		if math.Abs(sum-1) > numeric.SumTolerance {
			return nil, fmt.Errorf("core: personalization sums to %v, want 1", sum)
		}
	}

	if cfg.Parallelism > 1 {
		return c.runParallel(ctx, cfg, pvec, start)
	}

	eps := cfg.Epsilon
	// cur and next swap names each iteration, but the defer arguments are
	// evaluated here, so both backing arrays return to the pool whichever
	// name they end under — and no closure is allocated to capture them.
	cur := kernel.GetVec(n + 1)
	next := kernel.GetVec(n + 1)
	deltas := kernel.GetVec(cfg.MaxIterations)
	defer kernel.PutVec(cur)
	defer kernel.PutVec(next)
	defer kernel.PutVec(deltas)
	copy(cur, pvec)

	res := &Result{}
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		if iter%ctxCheckInterval == 1 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: power iteration cancelled at iteration %d: %w", iter-1, err)
			}
		}
		// Mass that redistributes along the personalization vector: the
		// random-jump mass, the mass on dangling local pages, and the mass
		// Λ forwards on behalf of dangling external pages.
		danglingMass := 0.0
		for _, i := range c.locDang {
			danglingMass += cur[i]
		}
		jump := (1 - eps) + eps*danglingMass + eps*cur[n]*c.extDanglingMass
		for i := 0; i <= n; i++ {
			next[i] = jump * pvec[i]
		}

		// Local rows.
		for i := 0; i < n; i++ {
			if c.danglingLocal[i] || cur[i] == 0 {
				continue
			}
			xi := eps * cur[i]
			for k := c.locOff[i]; k < c.locOff[i+1]; k++ {
				next[c.locAdj[k]] += xi * c.locProb[k]
			}
			next[n] += xi * c.toLambda[i]
		}

		// Λ row (non-dangling part; the dangling part went into jump).
		xl := eps * cur[n]
		for k, li := range c.lamAdj {
			next[li] += xl * c.lamProb[k]
		}
		next[n] += xl * c.lamSelf

		delta := 0.0
		for i := 0; i <= n; i++ {
			delta += math.Abs(next[i] - cur[i])
		}
		deltas[res.Iterations] = delta
		res.Iterations = iter
		cur, next = next, cur
		if delta < cfg.Tolerance {
			res.Converged = true
			break
		}
	}

	finishChainResult(res, cur, deltas[:res.Iterations], n, start)
	return res, nil
}

// ApproxRank ranks sub with uniform external weights. It is the
// convenience form of NewApproxChain followed by Run.
func ApproxRank(sub *graph.Subgraph, cfg Config) (*Result, error) {
	c, err := NewApproxChain(sub)
	if err != nil {
		return nil, err
	}
	return c.Run(cfg)
}

// ApproxRankCtx is ApproxRank with a shared precomputed Context (the
// multi-subgraph workflow).
func ApproxRankCtx(ctx *Context, sub *graph.Subgraph, cfg Config) (*Result, error) {
	c, err := NewApproxChainCtx(ctx, sub)
	if err != nil {
		return nil, err
	}
	return c.Run(cfg)
}

// IdealRank ranks sub using the known global score vector for the external
// pages. By Theorem 1 the returned local scores equal the global PageRank
// scores of the local pages (when globalScores is the converged global
// PageRank with the same ε).
func IdealRank(sub *graph.Subgraph, globalScores []float64, cfg Config) (*Result, error) {
	c, err := NewIdealChain(sub, globalScores)
	if err != nil {
		return nil, err
	}
	return c.Run(cfg)
}

// MixExternalScores blends true external scores with the uniform
// assumption: out[j] = alpha·scores[j]/extSum + (1−alpha)/(N−n). alpha = 0
// reproduces ApproxRank's E_approx, alpha = 1 IdealRank's E. It feeds the
// Theorem 2 ablation: the ranking error shrinks with ‖E − E_approx‖₁ as
// alpha grows.
func MixExternalScores(sub *graph.Subgraph, scores []float64, alpha float64) ([]float64, error) {
	if len(scores) != sub.Global.NumNodes() {
		return nil, fmt.Errorf("core: score vector has length %d, want N=%d", len(scores), sub.Global.NumNodes())
	}
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("core: mixing coefficient %v outside [0,1]", alpha)
	}
	extSum := 0.0
	extCount := 0
	for gid := range scores {
		if _, local := sub.LocalID(graph.NodeID(gid)); !local {
			extSum += scores[gid]
			extCount++
		}
	}
	if extSum <= 0 {
		return nil, fmt.Errorf("core: external scores sum to zero")
	}
	uni := 1.0 / float64(extCount)
	out := make([]float64, len(scores))
	for gid := range scores {
		if _, local := sub.LocalID(graph.NodeID(gid)); local {
			continue
		}
		out[gid] = alpha*scores[gid]/extSum + (1-alpha)*uni
	}
	// The mixture of two external distributions sums to 1 by
	// construction; renormalize anyway so rounding drift cannot
	// accumulate when the result is mixed or fed back in.
	normalize(out)
	return out, nil
}

// normalize rescales v in place to sum to 1 (no-op on a zero vector).
func normalize(v []float64) {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum <= 0 {
		return
	}
	inv := 1.0 / sum
	for i := range v {
		v[i] *= inv
	}
}
