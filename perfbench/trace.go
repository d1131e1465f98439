package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pagerank"
)

// The traced run. Spans are recorded only from the benchmark's own
// calls into each layer's public functions; nothing inside the program
// changes. serve's internals cannot be spanned from outside, so a traced
// request is served in-process through serve's Handler and its graph and
// core calls are replayed beside it — graph.NewSubgraph →
// core.NewApproxChainCtx → RunCtx, or core.RankManyCtx for a batch —
// and serve's self time is the handler's span minus those children.

// span is one timed call. Parent 0 marks a root; Req is the request's
// sequence number (-1 for boot spans).
type span struct {
	Phase  string `json:"phase"`
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(phase, name string, parent, req int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Phase: phase, Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0))})
	return id
}

// boots records each boot's timed segments as spans laid end to end
// from the boot's start (the untimed heap reads between them left out).
func (l *spanLog) boots(all []bootTimes) {
	for _, bt := range all {
		t := bt.start
		root := l.add("boot", "setup", 0, -1, t, t.Add(bt.total()))
		for _, seg := range []struct {
			name string
			d    time.Duration
		}{{"graph.open", bt.open}, {"core.new_context", bt.context}, {"serve.new_server", bt.server},
			{"serve.disk_load", bt.disk}, {"serve.listen", bt.listen}} {
			l.add("boot", seg.name, root, -1, t, t.Add(seg.d))
			t = t.Add(seg.d)
		}
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	return writeAtomic(path, func(tmp string) error { return os.WriteFile(tmp, buf.Bytes(), 0o644) })
}

// layers is what the traced run measured beyond the end-to-end metrics.
type layers struct {
	traced    phase // the traced half of the timed phase
	tracedRSS float64

	// Per-item layer spans of the traced phase (or of the quiet pass,
	// for a layer the workload's served path bypasses).
	subMS, chainMS, runMS, rankManyMS, util []float64
	// Per handler request of the traced phase.
	handlerMS, selfMS, graphReqMS, coreReqMS []float64
	bypassed                                 []string

	// Exact counts from the quiet pass, per item (request for KB).
	q counts

	globalMS    float64
	globalIters int
	speedup     float64
}

// counts are the quiet pass's deterministic counters and heap bytes.
type counts struct {
	items, requests                      int
	subBytes, coreBytes, serveBytes      float64
	chainEdges, iterations, edgesTouched float64
	reqBytes, respBytes                  float64
	runNS, buildNS                       float64
}

// traced is the traced half's step. A request goes over the loopback
// connection with a root span (the traced run's end-to-end figures) and
// through the handler with its layer calls replayed beside it (the
// layer figures). On crawl-cold a second call would hit the result
// cache the first one filled, so there even-numbered requests take the
// loopback and odd-numbered ones the handler; hot-repeat answers both
// calls from the cache and domain-batch never reads it, so there every
// request takes both and transport is a paired difference.
func (b *bench) traced(c *conn, r *request) (time.Duration, int, int) {
	n := len(r.items)
	paired := b.workload != crawlCold
	var lat time.Duration
	if paired || r.seq%2 == 0 {
		t := time.Now()
		st, l, err := b.cl.do(r.body, &c.buf)
		b.spans.add("traced", "client.request", 0, r.seq, t, t.Add(l))
		if f := b.check(c, r, st, c.buf.Bytes(), err, false); f > 0 || !paired {
			return l, n - f, f
		}
		lat = l
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(r.body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	b.s.srv.Handler().ServeHTTP(rec, req)
	hid := b.spans.add("traced", "serve.handler", 0, r.seq, t0, time.Now())
	f := b.check(c, r, rec.Code, rec.Body.Bytes(), nil, false)
	if f > 0 || !b.computed(c) {
		return lat, n - f, f
	}
	if err := b.replay("traced", c, r, hid, nil); err != nil {
		b.fails.add("request %d: replay: %v", r.seq, err)
		return lat, 0, n
	}
	return lat, n, 0
}

// computed reports whether the handler ran graph and core for the
// answer just checked into c: every batch, and every single answer not
// served from the result cache.
func (b *bench) computed(c *conn) bool {
	switch b.workload {
	case hotRepeat:
		return false // answered from the result cache (checked byte-identical)
	case domainBatch:
		return true
	}
	return !c.answers[0].cached
}

// replay re-runs one request's graph and core calls as child spans of
// parent and requires the same scores the handler served (c.answers).
// With cnt set it also takes each call's exact heap bytes.
func (b *bench) replay(phase string, c *conn, r *request, parent int, cnt *counts) error {
	ctx := context.Background()
	alloc := func() float64 {
		if cnt == nil {
			return 0
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc)
	}
	subs := make([]*graph.Subgraph, len(r.items))
	for k := range r.items {
		ids := r.items[k].nodes()
		a0 := alloc()
		t := time.Now()
		sub, err := graph.NewSubgraph(b.s.g, ids)
		t1 := time.Now()
		a1 := alloc()
		b.spans.add(phase, "graph.new_subgraph", parent, r.seq, t, t1)
		if err != nil {
			return err
		}
		if cnt != nil {
			// Another goroutine of the process can allocate inside the
			// window (a few dozen bytes now and then); the index itself
			// allocates the same on every call, so the smaller of two
			// calls is its exact figure.
			own := a1 - a0
			a0 = alloc()
			_, err := graph.NewSubgraph(b.s.g, ids)
			if again := alloc() - a0; err == nil && again < own {
				own = again
			}
			cnt.subBytes += own
		}
		subs[k] = sub
	}
	if b.workload == domainBatch {
		a0 := alloc()
		t := time.Now()
		res, err := core.RankManyCtx(ctx, b.s.gctx, subs, rankConfig, 0)
		t1 := time.Now()
		a1 := alloc()
		rm := b.spans.add(phase, "core.rank_many", parent, r.seq, t, t1)
		if err != nil {
			return err
		}
		if cnt != nil {
			cnt.coreBytes += a1 - a0
		}
		for k, sub := range subs {
			if _, err := b.chainRun(phase, sub, rm, r.seq, cnt, false); err != nil {
				return err
			}
			if !sameResult(&c.answers[k], res[k]) {
				return fmt.Errorf("item %d: replayed scores differ from the served ones", k)
			}
		}
		return nil
	}
	res, err := b.chainRun(phase, subs[0], parent, r.seq, cnt, true)
	if err != nil {
		return err
	}
	if !sameResult(&c.answers[0], res) {
		return fmt.Errorf("replayed scores differ from the served ones")
	}
	return nil
}

// chainRun builds and runs one chain as two spans under parent, adding
// the exact counts to cnt when set — and the heap bytes too when the
// chain's own calls are the request's core work (not a RankManyCtx
// batch, whose bytes the caller counted).
func (b *bench) chainRun(phase string, sub *graph.Subgraph, parent, req int, cnt *counts, countBytes bool) (*core.Result, error) {
	var ms runtime.MemStats
	if cnt != nil {
		runtime.ReadMemStats(&ms)
	}
	a0 := float64(ms.TotalAlloc)
	t := time.Now()
	chain, err := core.NewApproxChainCtx(b.s.gctx, sub)
	t1 := time.Now()
	var res *core.Result
	if err == nil {
		res, err = chain.RunCtx(context.Background(), rankConfig)
	}
	t2 := time.Now()
	if cnt != nil {
		runtime.ReadMemStats(&ms)
	}
	// Spans go in after the allocation read: the log's growth is not
	// the chain's.
	b.spans.add(phase, "core.chain_build", parent, req, t, t1)
	b.spans.add(phase, "core.run", parent, req, t1, t2)
	if err != nil {
		return nil, err
	}
	if cnt != nil {
		if countBytes {
			cnt.coreBytes += float64(ms.TotalAlloc) - a0
		}
		cnt.buildNS += float64(t1.Sub(t))
		cnt.runNS += float64(t2.Sub(t1))
		cnt.iterations += float64(res.Iterations)
		cnt.edgesTouched += float64(res.Iterations) * float64(chainWork(chain))
		for _, gid := range sub.Local {
			cnt.chainEdges += float64(b.s.g.OutDegree(gid) + b.s.g.InDegree(gid))
		}
	}
	return res, nil
}

// chainWork is the entries one power-iteration sweep reads: local
// transitions, the n transitions into Λ, the Λ row and Λ's self-loop.
func chainWork(c *core.ExtendedChain) int {
	nnz := 0
	for i := 0; i < c.NumLocal(); i++ {
		adj, _ := c.LocalTransitions(i)
		nnz += len(adj)
	}
	lam, _ := c.LambdaRow()
	return nnz + c.NumLocal() + len(lam) + 1
}

func sameResult(a *answer, res *core.Result) bool {
	return sameScores(a, &answer{scores: res.Scores, lambda: res.Lambda, iterations: res.Iterations})
}

// quietSize is how many requests the quiet pass replays (batches count
// four subgraphs each).
func quietSize(workload string) int {
	if workload == domainBatch {
		return 4
	}
	return 8
}

// quietPass serves a fixed, seeded set of requests one at a time with
// nothing else running, and replays their layer calls with the heap
// allocation counters read around each call (runtime.ReadMemStats
// flushes every per-P cache, so the byte counts are exact). The counts
// depend on the seed only: two traced runs with one seed print the same.
// Layers the workload's served path bypasses (graph and core on
// hot-repeat, RankManyCtx off domain-batch) take their spans from here.
func (b *bench) quietPass(ly *layers) error {
	gen := b.src.stream(b.seed, streamQuiet)
	gen.limit = quietSize(b.workload)
	c := &conn{answers: make([]answer, batchItems)}
	var subs []*graph.Subgraph
	for r := gen.take(); r != nil; r = gen.take() {
		req := httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		a0 := float64(ms.TotalAlloc)
		t := time.Now()
		b.s.srv.Handler().ServeHTTP(rec, req)
		t1 := time.Now()
		runtime.ReadMemStats(&ms)
		handlerBytes := float64(ms.TotalAlloc) - a0
		hid := b.spans.add("quiet", "serve.handler", 0, r.seq, t, t1)
		b.attempted += len(r.items)
		saved := b.hotRef
		b.hotRef = nil // parse every quiet answer, so the replay can compare
		f := b.check(c, r, rec.Code, rec.Body.Bytes(), nil, false)
		b.hotRef = saved
		if f > 0 {
			b.failed += f
			continue
		}
		ly.q.requests++
		ly.q.items += len(r.items)
		ly.q.reqBytes += float64(len(r.body))
		ly.q.respBytes += float64(rec.Body.Len())
		before := ly.q
		if err := b.replay("quiet", c, r, hid, &ly.q); err != nil {
			return err
		}
		inner := 0.0
		if b.computed(c) {
			inner = (ly.q.subBytes - before.subBytes) + (ly.q.coreBytes - before.coreBytes)
		}
		ly.q.serveBytes += handlerBytes - inner
		if b.workload != domainBatch {
			sub, err := graph.NewSubgraph(b.s.g, r.items[0].nodes())
			if err != nil {
				return err
			}
			subs = append(subs, sub)
		}
	}
	if gen.err != nil {
		return gen.err
	}
	if b.workload != domainBatch && len(subs) > 0 {
		// RankManyCtx is off this workload's served path: time it over the
		// quiet subgraphs as one batch, for the layer table.
		t := time.Now()
		if _, err := core.RankManyCtx(context.Background(), b.s.gctx, subs, rankConfig, 0); err != nil {
			return err
		}
		rm := b.spans.add("quiet", "core.rank_many", 0, -1, t, time.Now())
		for _, sub := range subs {
			if _, err := b.chainRun("quiet", sub, rm, -1, nil, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// globalReference times pagerank.Compute on the served web (the
// baseline the paper's Tables V/VI compare against) and checks that it
// reproduces the cached reference bit for bit.
func (b *bench) globalReference(ly *layers, ref []float64) error {
	t := time.Now()
	pr, err := pagerank.Compute(b.s.g, pagerank.Options{})
	ly.globalMS = ms(time.Since(t))
	if err != nil {
		return err
	}
	ly.globalIters = pr.Iterations
	for i, s := range pr.Scores {
		if math.Float64bits(s) != math.Float64bits(ref[i]) {
			fmt.Fprintf(os.Stderr, "perfbench: note: global PageRank on the mapped web differs from the reference at page %d\n", i)
			break
		}
	}
	if ly.q.items > 0 {
		ly.speedup = ly.globalMS / ((ly.q.buildNS + ly.q.runNS) / float64(ly.q.items) / 1e6)
	}
	return nil
}

// collect derives the layer timings from the spans: per item from the
// traced phase, falling back to the quiet pass for bypassed layers, and
// per handler request the serve self time by difference.
func (ly *layers) collect(l *spanLog, workers int) {
	byPhase := func(phase, name string) []float64 {
		var out []float64
		for i := range l.spans {
			if s := &l.spans[i]; s.Phase == phase && s.Name == name {
				out = append(out, s.ms())
			}
		}
		return out
	}
	pick := func(name string) []float64 {
		if v := byPhase("traced", name); len(v) > 0 {
			return v
		}
		ly.bypassed = append(ly.bypassed, name)
		return byPhase("quiet", name)
	}
	ly.subMS = pick("graph.new_subgraph")
	ly.chainMS = pick("core.chain_build")
	ly.runMS = pick("core.run")
	ly.rankManyMS = pick("core.rank_many")

	// Children by parent span, for self time and utilization.
	kids := make(map[int][]*span)
	for i := range l.spans {
		s := &l.spans[i]
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rmPhase := "traced"
	if len(byPhase("traced", "core.rank_many")) == 0 {
		rmPhase = "quiet"
	}
	for i := range l.spans {
		s := &l.spans[i]
		switch {
		case s.Phase == "traced" && s.Name == "serve.handler":
			g, c := 0.0, 0.0
			for _, k := range kids[s.ID] {
				if k.Name == "graph.new_subgraph" {
					g += k.ms()
				} else {
					c += k.ms()
				}
			}
			ly.handlerMS = append(ly.handlerMS, s.ms())
			ly.graphReqMS = append(ly.graphReqMS, g)
			ly.coreReqMS = append(ly.coreReqMS, c)
			ly.selfMS = append(ly.selfMS, s.ms()-g-c)
		case s.Phase == rmPhase && s.Name == "core.rank_many":
			items := 0.0
			for _, k := range kids[s.ID] {
				items += k.ms()
			}
			w := workers
			if n := len(kids[s.ID]) / 2; n < w {
				w = n
			}
			if w > 0 && s.ms() > 0 {
				ly.util = append(ly.util, items/(s.ms()*float64(w)))
			}
		}
	}
}

// counters are the values two traced runs with one seed must print
// identically.
func (ly *layers) counters(rep *report) map[string]float64 {
	q := ly.q
	per := func(x float64, n int) float64 { return x / float64(n) }
	return map[string]float64{
		"core.iterations":        per(q.iterations, q.items),
		"core.edges_touched":     per(q.edgesTouched, q.items),
		"core.chain_build_edges": per(q.chainEdges, q.items),
		"graph.new_subgraph_kb":  per(q.subBytes, q.items) / 1024,
		"serve.request_kb":       per(q.reqBytes, q.requests) / 1024,
		"serve.response_kb":      per(q.respBytes, q.requests) / 1024,
		"serve.result_hit_ratio": rep.hitRatio,
		"serve.evictions_per_op": rep.evictPerOp,
	}
}

// selfCheck compares the counters with those a previous traced run of
// the same workload and seed left in dir, then leaves its own. It
// returns the names that differ.
func selfCheck(path string, cur map[string]float64) ([]string, bool, error) {
	var diff []string
	prev := map[string]float64{}
	raw, err := os.ReadFile(path)
	found := err == nil
	if found {
		if err := json.Unmarshal(raw, &prev); err != nil {
			return nil, true, err
		}
		for k, v := range cur {
			if p, ok := prev[k]; !ok || math.Float64bits(p) != math.Float64bits(v) {
				diff = append(diff, fmt.Sprintf("%s %v (previous run %v)", k, v, p))
			}
		}
	}
	out, err := json.Marshal(cur)
	if err != nil {
		return nil, found, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, found, err
	}
	return diff, found, writeAtomic(path, func(tmp string) error { return os.WriteFile(tmp, out, 0o644) })
}
