package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// fillEntries is serve's default LRU capacity. crawl-cold and
// domain-batch fill it before timing starts, so every timed miss also
// evicts, as on a long-running daemon.
const fillEntries = 128

// exactSample is how many subgraphs of the fixed sample are re-ranked
// off the timed path with core.ApproxRankCtx and compared bit for bit.
const exactSample = 8

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string

	in    *inputs
	s     *server
	boots []bootTimes
	cl    *client
	src   *source
	main  *generator

	hot       []*request // hot-repeat's 64 requests
	hotPrimed []answer   // the priming process's answers, by hot index
	hotRef    [][]byte   // the warm answers' bytes, by hot index

	fails     failures
	attempted int
	failed    int

	// sample is the fixed set of answered subgraphs l1_vs_global and the
	// exact check run on: the 128 subgraphs that fill the LRU (the 64 hot
	// answers on hot-repeat). It is fixed by the seed, never by timing.
	sampleMu sync.Mutex
	sample   map[int]sampled

	spans *spanLog // traced runs only
}

type sampled struct {
	it item
	a  answer // a copy: scores, lambda and iterations
}

// report is everything a run measured.
type report struct {
	setup        []float64 // seconds, one per boot
	timed        phase
	rss          float64
	l1           float64
	l1n          int
	hitRatio     float64
	evictPerOp   float64
	entries      int64
	heapPerEntry float64 // MiB of live heap per cached entry
	steal        float64 // share of vCPU time the host took during the timed phase
	layers       *layers // traced runs only
}

func (b *bench) runDir() string { return filepath.Join(b.dir, "run") }

// run executes the workload: inputs, priming, boots, fill, timed phase,
// then every off-path check.
func (b *bench) run() (*report, error) {
	in, err := ensureInputs(b.dir)
	if err != nil {
		return nil, err
	}
	b.in = in
	if b.trace {
		b.spans = newSpanLog()
	}
	if err := os.MkdirAll(b.runDir(), 0o755); err != nil {
		return nil, err
	}
	diskPath := filepath.Join(b.runDir(), "cold-cache.gob")
	if b.workload == hotRepeat {
		diskPath = filepath.Join(b.runDir(), "hot-cache.gob")
		if err := runChild("prime", "-dir", b.dir, "-seed", fmt.Sprint(b.seed)); err != nil {
			return nil, err
		}
	} else if err := os.Remove(diskPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}

	s, boots, err := bootMany(in.webPath(), diskPath, bootsBefore, true)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			b.cl.close()
			s.close()
		}
	}()
	b.s, b.boots = s, boots
	rep := &report{}
	b.cl = newClient(s.url, connsFor(b.workload))

	if b.workload == hotRepeat {
		if b.hot, err = hotSet(s.g, b.seed); err != nil {
			return nil, err
		}
		if err := b.loadPrimed(); err != nil {
			return nil, err
		}
	}
	b.src = newSource(b.workload, s.g, in.DomainStarts, b.hot)
	b.main = b.src.stream(b.seed, streamMain)
	b.sample = make(map[int]sampled)

	// Fill (or, on hot-repeat, warm up): untimed, every answer checked,
	// and the fixed sample recorded.
	heapEmpty := liveHeap()
	if b.workload == hotRepeat {
		b.warmHot()
	} else {
		b.main.limit = fillEntries / itemsPerRequest(b.workload)
		b.count(runPhase(b.main, connsFor(b.workload), time.Time{}, b.loopback(true)))
	}
	if b.main.err != nil {
		return nil, b.main.err
	}
	b.main.limit = 0
	heapFull := liveHeap()
	rep.entries = s.srv.Stats().CacheEntries
	if b.workload == hotRepeat {
		bt := boots[len(boots)-1] // the serving boot
		rep.heapPerEntry = float64(bt.diskHeapBytes) / float64(bt.diskEntries) / (1 << 20)
	} else {
		rep.heapPerEntry = float64(heapFull-heapEmpty-b.sampleBytes()) / float64(rep.entries) / (1 << 20)
	}

	b.main.limit = b.main.seq + warmupRequests(b.workload)
	b.count(runPhase(b.main, connsFor(b.workload), time.Time{}, b.loopback(false)))
	b.main.limit = 0
	if b.main.err != nil {
		return nil, b.main.err
	}

	// The timed phase. A traced run splits its time between an untraced
	// and a traced half, so the tracing overhead is measured in-process;
	// the cache ratios come from the untraced part, the served workload
	// alone.
	st0 := s.srv.Stats()
	share := 1.0
	if b.trace {
		share = 0.5
	}
	steal0, total0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	rep.timed = runPhase(b.main, connsFor(b.workload), b.deadline(share), b.loopback(false))
	b.count(rep.timed)
	st1 := s.srv.Stats()
	if rep.rss, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	steal1, total1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	rep.steal = float64(steal1-steal0) / float64(total1-total0)
	rep.hitRatio = float64(st1.ResultHits-st0.ResultHits) / float64(rep.timed.ops)
	rep.evictPerOp = float64(st1.Evictions-st0.Evictions) / float64(rep.timed.ops)
	if b.trace {
		rep.layers = &layers{}
		rep.layers.traced = runPhase(b.main, connsFor(b.workload), b.deadline(share), b.traced)
		b.count(rep.layers.traced)
		if rep.layers.tracedRSS, err = peakRSSMiB(); err != nil {
			return nil, err
		}
	}

	if b.main.err != nil {
		return nil, b.main.err
	}

	// Off the timed path and past the peak-RSS read from here on.
	b.exactCheck()
	if b.trace {
		if err := b.quietPass(rep.layers); err != nil {
			return nil, err
		}
	}
	global, err := in.loadGlobal()
	if err != nil {
		return nil, err
	}
	rep.l1, rep.l1n, err = b.l1(global)
	if err != nil {
		return nil, err
	}
	if b.trace {
		if err := b.globalReference(rep.layers, global); err != nil {
			return nil, err
		}
	}

	b.cl.close()
	s.close()
	closed = true
	_, after, err := bootMany(in.webPath(), diskPath, bootsAfter, false)
	if err != nil {
		return nil, err
	}
	b.boots = append(b.boots, after...)
	for _, bt := range b.boots {
		rep.setup = append(rep.setup, bt.total().Seconds())
	}
	if b.trace {
		b.spans.boots(b.boots)
		if err := b.spans.write(filepath.Join(b.dir, "trace", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (b *bench) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * b.seconds * float64(time.Second)))
}

// count adds a phase's ops to the run's attempted/failed totals.
func (b *bench) count(p phase) {
	b.attempted += p.ops + p.failed
	b.failed += p.failed
}

// loopback is the untraced step: one request over a loopback connection,
// checked after the latency clock stops. keep records the answers in
// the fixed sample.
func (b *bench) loopback(keep bool) step {
	return func(c *conn, r *request) (time.Duration, int, int) {
		st, lat, err := b.cl.do(r.body, &c.buf)
		f := b.check(c, r, st, c.buf.Bytes(), err, keep)
		return lat, len(r.items) - f, f
	}
}

// check verifies one answer and returns how many of r's ops failed: all
// of them on a transport error, a non-200 status or a malformed body,
// else those whose item fails checkAnswer.
func (b *bench) check(c *conn, r *request, status int, body []byte, err error, keep bool) int {
	n := len(r.items)
	if err != nil {
		b.fails.add("request %d: %v", r.seq, err)
		return n
	}
	if status != http.StatusOK {
		b.fails.add("request %d: HTTP %d: %.200s", r.seq, status, body)
		return n
	}
	if r.hot >= 0 && b.hotRef != nil && bytes.Equal(body, b.hotRef[r.hot]) {
		return 0 // byte-identical to its checked warm answer
	}
	if b.workload != domainBatch {
		a := &c.answers[0]
		if err := parseRank(body, a); err != nil {
			b.fails.add("request %d: %v", r.seq, err)
			return n
		}
		if err := checkAnswer(&r.items[0], a); err != nil {
			b.fails.add("request %d: %v", r.seq, err)
			return n
		}
		if r.hot >= 0 && !sameScores(a, &b.hotPrimed[r.hot]) {
			b.fails.add("request %d: hot answer %d differs from its primed answer", r.seq, r.hot)
			return n
		}
		if keep {
			b.keep(r.seq, &r.items[0], a)
		}
		return 0
	}
	if err := parseBatch(body, c.answers[:n]); err != nil {
		b.fails.add("request %d: %v", r.seq, err)
		return n
	}
	failed := 0
	for k := range r.items {
		if err := checkAnswer(&r.items[k], &c.answers[k]); err != nil {
			b.fails.add("request %d item %d: %v", r.seq, k, err)
			failed++
		} else if keep {
			b.keep(r.seq*batchItems+k, &r.items[k], &c.answers[k])
		}
	}
	return failed
}

func (b *bench) keep(key int, it *item, a *answer) {
	s := sampled{it: *it, a: answer{scores: append([]float64(nil), a.scores...), lambda: a.lambda, iterations: a.iterations}}
	b.sampleMu.Lock()
	b.sample[key] = s
	b.sampleMu.Unlock()
}

// sampleList returns the fixed sample in key order.
func (b *bench) sampleList() []sampled {
	var out []sampled
	for k := 0; len(out) < len(b.sample); k++ {
		if s, ok := b.sample[k]; ok {
			out = append(out, s)
		}
	}
	return out
}

// sampleBytes is the heap the harness itself holds for the sample, taken
// out of serve.heap_mb_per_entry.
func (b *bench) sampleBytes() int64 {
	var n int64
	for _, s := range b.sample {
		n += int64(8*cap(s.a.scores) + 4*cap(s.it.ids))
	}
	return n
}

// warmHot sends each hot request once, checks the warm answer against
// the primed one, and keeps its bytes: a timed answer byte-identical to
// its checked warm answer needs no second parse.
func (b *bench) warmHot() {
	refs := make([][]byte, len(b.hot))
	c := &conn{answers: make([]answer, 1)}
	for i, r := range b.hot {
		st, _, err := b.cl.do(r.body, &c.buf)
		f := b.check(c, r, st, c.buf.Bytes(), err, true)
		b.attempted++
		b.failed += f
		refs[i] = append([]byte(nil), c.buf.Bytes()...)
	}
	b.hotRef = refs
}

// loadPrimed reads the priming process's answers for the hot set.
func (b *bench) loadPrimed() error {
	f, err := os.Open(filepath.Join(b.runDir(), "hot-primed.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var a answer
		if err := parseRank(sc.Bytes(), &a); err != nil {
			return fmt.Errorf("primed answer %d: %w", len(b.hotPrimed), err)
		}
		b.hotPrimed = append(b.hotPrimed, a)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(b.hotPrimed) != len(b.hot) {
		return fmt.Errorf("%d primed answers for %d hot requests", len(b.hotPrimed), len(b.hot))
	}
	for i := range b.hot {
		if err := checkAnswer(&b.hot[i].items[0], &b.hotPrimed[i]); err != nil {
			return fmt.Errorf("primed answer %d: %w", i, err)
		}
	}
	return nil
}

// exactCheck re-ranks the first subgraphs of the fixed sample with
// core.ApproxRankCtx and requires bit-identical scores; a mismatch
// fails that op.
func (b *bench) exactCheck() {
	for i, s := range b.sampleList() {
		if i == exactSample {
			break
		}
		sub, err := graph.NewSubgraph(b.s.g, s.it.nodes())
		if err != nil {
			b.fails.add("exact check %d: %v", i, err)
			b.failed++
			continue
		}
		res, err := core.ApproxRankCtx(b.s.gctx, sub, rankConfig)
		if err != nil {
			b.fails.add("exact check %d: %v", i, err)
			b.failed++
			continue
		}
		if !sameResult(&s.a, res) {
			b.fails.add("exact check %d: served scores differ from core.ApproxRankCtx", i)
			b.failed++
		}
	}
}

// l1 is l1_vs_global: the mean, over the fixed sample, of the L1
// distance between the served scores and global PageRank restricted to
// the subgraph, both normalized over the local pages (as
// experiments.GlobalRun.Evaluate does). It is deterministic for a seed,
// so accuracy traded for speed shows as a regression.
func (b *bench) l1(global []float64) (float64, int, error) {
	list := b.sampleList()
	total := 0.0
	for _, s := range list {
		truth := make([]float64, s.it.n())
		for k := range truth {
			truth[k] = global[s.it.node(k)]
		}
		d, err := metrics.L1(normalized(truth), normalized(s.a.scores))
		if err != nil {
			return 0, 0, err
		}
		total += d
	}
	if len(list) == 0 {
		return 0, 0, errors.New("empty l1 sample")
	}
	return total / float64(len(list)), len(list), nil
}

func normalized(v []float64) []float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / s
	}
	return out
}

// prime is the hot-repeat priming process: a server over the same web
// answers the 64 hot requests cold, saves them with SaveDiskCache, and
// writes the answers for the measured process to compare against.
func prime(dir string, seed int64) error {
	in, err := readInputs(filepath.Join(dir, "data"))
	if err != nil {
		return err
	}
	runDir := filepath.Join(dir, "run")
	g, err := graph.MmapFile(in.webPath())
	if err != nil {
		return err
	}
	defer g.Close()
	srv, err := serve.NewServer(serve.Options{
		Context:   core.NewContext(g),
		Rank:      rankConfig,
		DiskCache: filepath.Join(runDir, "hot-cache.gob"),
	})
	if err != nil {
		return err
	}
	hot, err := hotSet(g, seed)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	for i, r := range hot {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/rank", bytes.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("priming request %d: HTTP %d: %.200s", i, rec.Code, rec.Body.Bytes())
		}
		out.Write(bytes.TrimSpace(rec.Body.Bytes()))
		out.WriteByte('\n')
	}
	if err := srv.SaveDiskCache(); err != nil {
		return err
	}
	return writeAtomic(filepath.Join(runDir, "hot-primed.jsonl"), func(path string) error {
		return os.WriteFile(path, out.Bytes(), 0o644)
	})
}

// printf writes one report line to stdout.
func printf(format string, args ...any) { fmt.Printf(format+"\n", args...) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
