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
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/numeric"
	"repro/internal/pagerank"
)

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
	// over the extended chain: 0 or 1 run the sequential push sweep of
	// the chain's matrix, k > 1 pulls along its transpose over
	// min(k, GOMAXPROCS) edge-balanced target ranges, and a negative
	// value selects the CPU count. At one effective range the run takes
	// the push sweep, as pagerank's parallel scheme does. The parallel
	// iterate is bit-identical across worker counts (each state's in-row
	// is accumulated whole, in CSR order); runs are bit-deterministic for
	// a fixed Parallelism, and agree with the sequential sweep to
	// floating-point reassociation, far below any practical tolerance.
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

	// m is the collapsed transition matrix over the n+1 states. Local row
	// i lists i's local out-edges, then its edge into Λ when it has an
	// external out-neighbour; row n lists the Λ→local entries, then Λ's
	// self-loop when it is positive. Globally-dangling local pages have
	// empty rows and dangling weight 1. Λ has dangling weight
	// extDanglingMass, the E-mass of the dangling external pages, whose
	// collapsed rows are the personalization vector.
	m               kernel.PushCSR
	extDanglingMass float64

	// pull caches m's transpose, built by the first parallel run and
	// reused for the chain's lifetime; sequential runs never pay for it.
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

// row splits state i's row of m into its entries for local targets and
// its trailing entry into Λ (0 when it has none).
func (c *ExtendedChain) row(i int) ([]uint32, []float64, float64) {
	lo, hi := c.m.OutOff[i], c.m.OutOff[i+1]
	adj, prob := c.m.OutDst[lo:hi], c.m.OutProb[lo:hi]
	if k := len(adj) - 1; k >= 0 && int(adj[k]) == c.n {
		return adj[:k], prob[:k], prob[k]
	}
	return adj, prob, 0
}

// LocalTransitions returns the local targets and probabilities of local
// page i's row (excluding the Λ column). The slices alias internal storage.
func (c *ExtendedChain) LocalTransitions(i int) ([]uint32, []float64) {
	adj, prob, _ := c.row(i)
	return adj, prob
}

// ToLambda returns the probability that local page i transitions to Λ.
func (c *ExtendedChain) ToLambda(i int) float64 {
	_, _, p := c.row(i)
	return p
}

// LambdaRow returns the sparse Λ→local transition probabilities. The
// slices alias internal storage.
func (c *ExtendedChain) LambdaRow() ([]uint32, []float64) {
	adj, prob, _ := c.row(c.n)
	return adj, prob
}

// LambdaSelf returns the Λ→Λ transition probability contributed by
// non-dangling external pages. The full self-loop probability of the
// collapsed matrix additionally includes the dangling external pages'
// uniform-jump mass: see LambdaSelfLoop.
func (c *ExtendedChain) LambdaSelf() float64 {
	_, _, p := c.row(c.n)
	return p
}

// ExtDanglingMass returns the total E-weight of dangling external pages.
func (c *ExtendedChain) ExtDanglingMass() float64 { return c.extDanglingMass }

// LambdaTo returns the effective Λ→(local k) entry of the collapsed
// transition matrix, including the dangling external pages' uniform mass.
// It is O(#nonzero Λ entries); intended for tests and inspection.
func (c *ExtendedChain) LambdaTo(k int) float64 {
	p := c.extDanglingMass / float64(c.bigN)
	adj, prob := c.LambdaRow()
	for idx, lk := range adj {
		if int(lk) == k {
			p += prob[idx]
		}
	}
	return p
}

// LambdaSelfLoop returns the effective Λ→Λ entry of the collapsed
// transition matrix, including the dangling external pages' uniform mass.
func (c *ExtendedChain) LambdaSelfLoop() float64 {
	return c.LambdaSelf() + c.extDanglingMass*float64(c.bigN-c.n)/float64(c.bigN)
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
	c := newChainShell(sub, true)
	w := 1.0 / float64(sub.External())
	e := c.uniformLambdaRow(w, inMass)
	// Locally-dangling pages are a subset of the global dangling set, so
	// the external dangling count is a subtraction — O(1) given the
	// shell, replacing the former O(global-dangling) membership scan that
	// made chain construction scale with the GLOBAL graph.
	extDangling := ctx.DanglingCount() - len(c.m.DanglingIdx)
	c.finishLambdaRow(e, float64(extDangling)*w)
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
	c := newChainShell(sub, false)
	e := c.buildLambdaRow(sub, func(j graph.NodeID) float64 { return extScores[j] / extSum })
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
	c.finishLambdaRow(e, extDanglingMass)
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

// newChainShell builds the parts shared by every chain flavour: m's local
// rows, with global out-degree denominators and the column into Λ, and
// n+1 reserved slots for the Λ row. With tally, the fill pass adds to Λ
// slot k the mass A[j][k] (in the probabilities) and the count (in the
// targets) of k's in-edges from local pages j; the Λ row builders then
// overwrite the slots.
func newChainShell(sub *graph.Subgraph, tally bool) *ExtendedChain {
	g := sub.Global
	n := sub.N()
	// First pass: row lengths — the local out-neighbours, plus one entry
	// into Λ when any out-neighbour is external — and the dangling count.
	off := make([]int64, n+2)
	nd := 0
	for li, gid := range sub.Local {
		cnt := 0
		if g.Dangling(gid) {
			nd++
		} else {
			adj := g.OutNeighbors(gid)
			for _, v := range adj {
				if sub.Member.Contains(v) {
					cnt++
				}
			}
			if cnt < len(adj) {
				cnt++
			}
		}
		off[li+1] = off[li] + int64(cnt)
	}
	off[n+1] = off[n] + int64(n) + 1
	dst := make([]uint32, off[n+1])
	prob := make([]float64, off[n+1])
	var dang []uint32
	if nd > 0 {
		dang = make([]uint32, 0, nd+1) // a spare slot for Λ
	}
	lamCnt, lamIn := dst[off[n]:], prob[off[n]:]
	// Second pass: fill probabilities using the GLOBAL out-degree (or
	// total out-weight) as denominator — the paper's A entries.
	k := int64(0)
	for li, gid := range sub.Local {
		if g.Dangling(gid) {
			dang = append(dang, uint32(li))
			continue
		}
		wout := g.WeightOut(gid)
		ws := g.OutWeights(gid)
		extProb := 0.0
		unit := 1.0 / wout
		for j, v := range g.OutNeighbors(gid) {
			p := unit
			if ws != nil {
				p = ws[j] / wout
			}
			if lv, local := sub.LocalID(v); local {
				dst[k], prob[k] = lv, p
				k++
				if tally {
					lamIn[lv] += p
					lamCnt[lv]++
				}
			} else {
				extProb += p
			}
		}
		if k < off[li+1] { // the row's last slot is its edge into Λ
			dst[k], prob[k] = uint32(n), extProb
			k++
		}
	}
	return &ExtendedChain{g: g, local: sub.Local, n: n, bigN: g.NumNodes(),
		m: kernel.PushCSR{N: n + 1, OutOff: off, OutDst: dst, OutProb: prob, DanglingIdx: dang}}
}

// lambdaSlots returns the Λ row's reserved slots, before finishLambdaRow
// trims them to the row.
func (c *ExtendedChain) lambdaSlots() ([]uint32, []float64) {
	lo := c.m.OutOff[c.n]
	return c.m.OutDst[lo:], c.m.OutProb[lo:]
}

// buildLambdaRow writes the sparse Λ→local entries into the Λ slots and
// returns their count: for each local page k, the sum over its external
// in-neighbours j of weight(j)·A[j][k]. weight must return the
// normalized E entry for an external page. It serves non-uniform E;
// uniform E takes uniformLambdaRow.
func (c *ExtendedChain) buildLambdaRow(sub *graph.Subgraph, weight func(graph.NodeID) float64) int {
	g := c.g
	adj, prob := c.lambdaSlots()
	e := 0
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
			adj[e], prob[e] = uint32(li), p
			e++
		}
	}
	return e
}

// uniformLambdaRow writes the Λ row for uniform E weight w without
// reading an external in-neighbour, and returns its entry count. With
// inMass[k] = Σ_{j→k} A[j][k], the entry of local page k is
// w·(inMass[k] − localIn[k]), where localIn[k] and localCnt[k] are the
// mass and count of k's in-edges from local pages, tallied into Λ slot k
// by newChainShell. Page k has an entry iff it has an external
// in-neighbour, an exact integer test; the subtraction is clamped at zero
// against rounding. inMass is indexed by global id; nil sums each local
// page's in-mass from its in-row instead.
//
// The row is compacted over the tallies in place: entry e is written at
// slot e ≤ k only after page k's tallies are read.
func (c *ExtendedChain) uniformLambdaRow(w float64, inMass []float64) int {
	g := c.g
	localCnt, localIn := c.lambdaSlots()
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
	return e
}

// finishLambdaRow closes the Λ row's e entries with Λ's self-loop: the
// stochastic residual of the row, i.e. the unit E mass minus the
// dangling mass minus the sparse entries. Tiny negative residuals from
// float accumulation are clamped to zero, which drops the loop. Λ joins
// the dangling states with weight extDanglingMass when that is positive.
func (c *ExtendedChain) finishLambdaRow(e int, extDanglingMass float64) {
	n := c.n
	adj, prob := c.lambdaSlots()
	s := 1.0 - extDanglingMass
	for _, p := range prob[:e] {
		s -= p
	}
	if s > 0 {
		adj[e], prob[e] = uint32(n), s
		e++
	}
	end := c.m.OutOff[n] + int64(e)
	c.m.OutOff[n+1] = end
	c.m.OutDst, c.m.OutProb = c.m.OutDst[:end], c.m.OutProb[:end]
	c.extDanglingMass = extDanglingMass
	if extDanglingMass > 0 {
		w := make([]float64, len(c.m.DanglingIdx)+1)
		for i := range w {
			w[i] = 1
		}
		w[len(w)-1] = extDanglingMass
		c.m.DanglingIdx = append(c.m.DanglingIdx, uint32(n))
		c.m.DanglingW = w
	}
}

// Run performs the power iteration R = ε·A_eᵀ·R + (1−ε)·P_ideal on the
// extended chain and returns local scores plus the Λ score. It is
// RunCtx with context.Background() — uncancellable; long-running
// callers should prefer RunCtx.
func (c *ExtendedChain) Run(cfg Config) (*Result, error) {
	return c.RunCtx(context.Background(), cfg)
}

// RunCtx is Run under a context: the iteration checks ctx after every
// step (kernel.Iterate) and, when cancelled (or when cfg.Deadline
// expires), returns nil and ctx's error wrapped with the iteration
// reached. No partial scores are returned — an unconverged iterate is
// not a distribution anyone should serve.
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

	// Both sweeps redistribute dangling mass along pvec: the collapsed
	// chain's dangling rows are the personalization vector by
	// construction. cur and next swap names each step, but the defer
	// arguments are evaluated here, so both backing arrays return to the
	// pool whichever name they end under.
	eps := cfg.Epsilon
	cur := kernel.GetVec(n + 1)
	next := kernel.GetVec(n + 1)
	defer kernel.PutVec(cur)
	defer kernel.PutVec(next)
	copy(cur, pvec)
	// Parallel runs pull along m's transpose with a kernel.SweepPool
	// spawned once per run, each worker owning a disjoint
	// edge-count-balanced range of target states: no reduction pass, and
	// an iterate bit-identical across worker counts. Parts beyond
	// GOMAXPROCS cannot run concurrently, and at one part the push sweep
	// is faster.
	var pull *kernel.CSR
	var pool *kernel.SweepPool
	var bounds []int
	if parts := min(cfg.Parallelism, runtime.GOMAXPROCS(0)); parts > 1 {
		pull = c.pullCSR()
		bounds = kernel.PartitionByEdges(pull.InOff, parts)
		pool = kernel.NewSweepPool(len(bounds) - 1)
		defer pool.Close()
	}
	deltas, converged, err := kernel.Iterate(ctx, cfg.MaxIterations, cfg.Tolerance, func() float64 {
		var delta float64
		if pool != nil {
			delta = pool.Sweep(ctx, pull, next, cur, pvec, pvec, eps, pull.DanglingMass(cur), bounds)
		} else {
			delta = c.m.Sweep(next, cur, pvec, pvec, eps, c.m.DanglingMass(cur))
		}
		cur, next = next, cur
		return delta
	})
	if err != nil {
		return nil, fmt.Errorf("core: power iteration %w", err)
	}
	res := &Result{Lambda: cur[n]}
	res.Scores = make([]float64, n)
	copy(res.Scores, cur[:n])
	res.Deltas, res.Iterations, res.Converged = deltas, len(deltas), converged
	res.Elapsed = time.Since(start)
	return res, nil
}

// pullCSR returns m's transpose, building it on first use: O(states +
// edges), at most once per chain, so only parallel runs pay for it.
func (c *ExtendedChain) pullCSR() *kernel.CSR {
	c.pullOnce.Do(func() { c.pull = c.m.Pull() })
	return c.pull
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
