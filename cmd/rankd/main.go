// Command rankd is the ranking-as-a-service daemon: it preprocesses one
// global graph at startup and serves subgraph-rank and hybrid search
// queries over HTTP with warm caches, request coalescing, and bounded
// admission (see internal/serve).
//
// Usage:
//
//	rankd -graph web.bin [-addr :8080] [flags]
//	rankd -synthetic 100000 [-seed 1] [-addr :8080] [flags]
//
// -graph loads a graph file (text or v2 binary — detected by content,
// not name; a file in the retired v1 binary format is an error). A v2
// file is memory-mapped by default, so startup cost and resident heap
// are independent of graph size (disable with -mmap=false). -synthetic
// generates an N-page web in-process instead, with term bags assigned
// so /v1/search works out of the box. Capacity knobs:
//
//	-cache-entries N   LRU capacity in subgraphs; each entry pins its ids
//	                   and scores (no chain), nothing sized by the global
//	                   graph (~0.04 MiB for a 100–5,000-page crawl of a
//	                   1.9M-page web, so the default 1024 is ~0.04 GB
//	                   plus the Context's 15.2 MB in-mass vector)
//	-max-inflight N    concurrent computations admitted
//	-max-queue N       requests allowed to wait for admission (429 beyond)
//	-request-timeout D default per-request budget (503 when exceeded)
//	-max-timeout D     cap on a request-supplied timeout_ms
//	-disk-cache PATH   persistent score cache, loaded at startup and
//	                   saved on graceful shutdown, so restarts are warm
//
// Endpoints: POST /v1/rank, POST /v1/search, GET /v1/stats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	graphPath := flag.String("graph", "", "input graph file (or use -synthetic)")
	synthetic := flag.Int("synthetic", 0, "generate an N-page synthetic web instead of loading -graph")
	seed := flag.Int64("seed", 1, "generation seed for -synthetic")
	eps := flag.Float64("eps", 0.85, "default damping factor")
	tol := flag.Float64("tol", 1e-5, "default L1 convergence tolerance")
	parallelism := flag.Int("parallelism", 0, "workers per power iteration (0 = sequential, <0 = CPU count)")
	cacheEntries := flag.Int("cache-entries", 1024, "LRU capacity in cached subgraphs")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent computations (0 = CPU count)")
	maxQueue := flag.Int("max-queue", 0, "max requests waiting for admission (0 = 4x max-inflight)")
	reqTimeout := flag.Duration("request-timeout", 10*time.Second, "default per-request compute budget")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on request-supplied timeouts")
	diskCache := flag.String("disk-cache", "", "persistent score cache file (optional)")
	useMmap := flag.Bool("mmap", true, "memory-map v2 graph files instead of copying them onto the heap")
	flag.Parse()

	if (*graphPath == "") == (*synthetic == 0) {
		fmt.Fprintln(os.Stderr, "rankd: exactly one of -graph or -synthetic is required")
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM initiate a graceful drain: stop accepting, finish
	// in-flight requests, save the disk cache, exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		g     *graph.Graph
		terms [][]uint32
		err   error
	)
	if *synthetic > 0 {
		var ds *gen.Dataset
		ds, err = gen.Generate(gen.Config{Pages: *synthetic, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		g = ds.Graph
		terms, err = gen.AssignTerms(ds, gen.TermConfig{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rankd: generated %d-page synthetic web (seed %d), term corpus attached\n", *synthetic, *seed)
	} else {
		how := "loaded"
		format, err := graph.SniffFile(*graphPath)
		if err != nil {
			fatal(err)
		}
		if format == graph.FormatV2 && *useMmap {
			g, err = graph.MmapFile(*graphPath)
			how = "mapped"
		} else {
			g, err = graph.LoadFile(*graphPath)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rankd: %s %s: %d pages, %d links (search disabled: no term corpus)\n",
			how, *graphPath, g.NumNodes(), g.NumEdges())
	}

	srv, err := serve.NewServer(serve.Options{
		Context:        core.NewContext(g),
		Terms:          terms,
		Rank:           core.Config{Epsilon: *eps, Tolerance: *tol, Parallelism: *parallelism},
		CacheEntries:   *cacheEntries,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		RequestTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBatch:       256,
		DiskCache:      *diskCache,
		BaseContext:    ctx,
	})
	if err != nil {
		fatal(err)
	}
	if *diskCache != "" {
		n, err := srv.LoadDiskCache()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rankd: warm start failed (continuing cold):", err)
		} else {
			fmt.Printf("rankd: disk cache: %d subgraph entries warm\n", n)
		}
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "rankd: shutdown:", err)
		}
	}()

	fmt.Printf("rankd: serving on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-shutdownDone
	if err := srv.SaveDiskCache(); err != nil {
		fatal(err)
	}
	if *diskCache != "" {
		fmt.Printf("rankd: disk cache saved to %s\n", *diskCache)
	}
	// Unmap last: the server's context, chains, and kernel snapshots all
	// alias the mapped CSR, so the mapping must outlive the drain and the
	// cache save above. Heap-backed graphs make this a no-op.
	if err := g.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rankd:", err)
	os.Exit(1)
}
