package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"
)

// client sends requests over a fixed pool of persistent loopback
// connections (one per closed-loop client).
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: url}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer into buf. The latency
// runs from the send to the last byte of the answer.
func (c *client) do(body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(t), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(t)
	_ = resp.Body.Close() // read to EOF already; nothing to flush
	return resp.StatusCode, lat, err
}

// conn is one closed-loop client's reusable state.
type conn struct {
	buf     bytes.Buffer
	answers []answer
}

// phase is what one closed-loop phase measured.
type phase struct {
	lat      []float64 // request latencies, ms
	ops      int       // ranked subgraphs completed (a batch item is one op)
	failed   int       // ops in failed requests or failing a check
	requests int
	elapsed  time.Duration // first send to last answer
}

func (p *phase) opsPerSec() float64 { return float64(p.ops) / p.elapsed.Seconds() }

// step serves one request on one client and reports its latency (zero
// when the request does not count as a latency sample) and its
// completed and failed ops.
type step func(c *conn, r *request) (lat time.Duration, ops, failed int)

// runPhase runs conns closed-loop clients over gen until it is exhausted
// or, when deadline is non-zero, until the deadline passes. Requests in
// flight at the deadline complete and are counted.
func runPhase(gen *generator, conns int, deadline time.Time, do step) phase {
	var (
		mu  sync.Mutex
		out phase
		wg  sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &conn{answers: make([]answer, batchItems)}
			var lats []float64
			ops, failed, reqs := 0, 0, 0
			for deadline.IsZero() || time.Now().Before(deadline) {
				r := gen.take()
				if r == nil {
					break
				}
				lat, n, f := do(c, r)
				if lat > 0 {
					lats = append(lats, float64(lat)/float64(time.Millisecond))
				}
				ops += n
				failed += f
				reqs++
			}
			end := time.Since(start)
			mu.Lock()
			out.lat = append(out.lat, lats...)
			out.ops += ops
			out.failed += failed
			out.requests += reqs
			if end > out.elapsed {
				out.elapsed = end
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// failures keeps the first few check failures for the report.
type failures struct {
	mu    sync.Mutex
	count int
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

func (f *failures) report() {
	for _, s := range f.first {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", s)
	}
}
