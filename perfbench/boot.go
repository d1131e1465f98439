package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

// A run boots the server bootsBefore times before its timed phase (the
// last boot serves it) and bootsAfter times once everything else is
// done, and reports the median boot as setup_s. One boot (~50 ms, most
// of it MmapFile's CRC pass over the ~110 MB file) spreads ±15% from
// run to run on a shared 2-vCPU VM, and boots taken back to back share one
// moment's contention; spreading them over the run's wall time steadies
// the median.
const (
	bootsBefore = 8
	bootsAfter  = 8
)

// rankConfig is rankd's default rank configuration: ε = 0.85, L1
// tolerance 1e-5, sequential power iteration.
var rankConfig = core.Config{Epsilon: 0.85, Tolerance: 1e-5}

// server is one booted daemon: the mapped web, its core.Context, the
// serve.Server and the loopback listener it serves on.
type server struct {
	g    *graph.Graph
	gctx *core.Context
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve returns
	// serveErr is Serve's return value, readable once done is closed.
	serveErr error
}

// bootTimes are the timed segments of one boot. The set-up time is
// their sum; heap measurements between them are not counted.
type bootTimes struct {
	start                               time.Time
	open, context, server, listen, disk time.Duration
	diskEntries                         int
	diskHeapBytes                       int64 // live heap the warm start added
}

func (bt bootTimes) total() time.Duration {
	return bt.open + bt.context + bt.server + bt.listen + bt.disk
}

// boot starts the daemon wired as cmd/rankd wires it (map, context,
// server, disk warm start, listen), with one
// deliberate difference: the LRU keeps serve's default 128 entries, not
// rankd's -cache-entries 1024. Every cached entry pins its
// graph.Subgraph index of 4N+N/8 bytes, ~7.8 MB on this 1.9M-page web,
// so 1024 entries would pin ~8 GB on a 7 GiB machine. (A finding for
// serve: its cache is sized in entries, not bytes.)
//
// diskPath is the disk cache to warm-start from; on the cold workloads
// it names a file that does not exist, as on a first rankd start.
func boot(webPath, diskPath string) (*server, bootTimes, error) {
	bt := bootTimes{start: time.Now()}
	t := bt.start
	g, err := graph.MmapFile(webPath)
	if err != nil {
		return nil, bt, err
	}
	bt.open = time.Since(t)

	t = time.Now()
	gctx := core.NewContext(g)
	bt.context = time.Since(t)

	t = time.Now()
	srv, err := serve.NewServer(serve.Options{
		Context:        gctx,
		Rank:           rankConfig,
		RequestTimeout: 10 * time.Second,
		MaxTimeout:     30 * time.Second,
		MaxBatch:       256,
		DiskCache:      diskPath,
	})
	bt.server = time.Since(t)
	if err != nil {
		_ = g.Close() // the NewServer error is the one to report
		return nil, bt, err
	}

	before := liveHeap()
	t = time.Now()
	bt.diskEntries, err = srv.LoadDiskCache()
	bt.disk = time.Since(t)
	bt.diskHeapBytes = liveHeap() - before
	if err != nil {
		_ = g.Close() // the load error is the one to report
		return nil, bt, err
	}

	t = time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = g.Close() // the listen error is the one to report
		return nil, bt, err
	}
	s := &server{
		g: g, gctx: gctx, srv: srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String() + "/v1/rank",
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.serveErr = s.hs.Serve(ln)
	}()
	bt.listen = time.Since(t)
	return s, bt, nil
}

// close stops serving, waits for the Serve goroutine, and unmaps the
// web last: every chain and cached subgraph aliases the mapping.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // force-close what the drain left
	}
	<-s.done
	if s.serveErr != nil && !errors.Is(s.serveErr, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", s.serveErr)
	}
	_ = s.g.Close() // unmap errors leave nothing to recover in a benchmark
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// bootMany boots n times and returns every boot's timings. With keep
// set the last server stays up and is returned; otherwise every server
// is closed.
func bootMany(webPath, diskPath string, n int, keep bool) (*server, []bootTimes, error) {
	var all []bootTimes
	for i := 0; i < n; i++ {
		s, bt, err := boot(webPath, diskPath)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, bt)
		if keep && i == n-1 {
			return s, all, nil
		}
		s.close()
	}
	return nil, all, nil
}
