package pagerank

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// countdownContext flips Err to context.Canceled after n calls. All four
// iteration schemes poll ctx.Err(), so this drives their mid-run
// cancellation paths deterministically, with no sleeps or goroutine
// races. The mutex matters for the parallel scheme, whose workers also
// poll the context.
type countdownContext struct {
	context.Context
	mu   sync.Mutex
	left int
}

func newCountdown(calls int) *countdownContext {
	return &countdownContext{Context: context.Background(), left: calls}
}

func (c *countdownContext) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// ctxTestGraph is irregular (varying out-degrees, one dangling page) so
// the uniform start vector is nowhere near the fixed point and no scheme
// converges before cancellation at the unreachable tolerance used below.
func ctxTestGraph() *graph.Graph {
	const n = 50
	edges := make([][2]graph.NodeID, 0, 2*n)
	for i := 0; i < n-1; i++ { // n-1 dangles
		edges = append(edges, [2]graph.NodeID{graph.NodeID(i), graph.NodeID((i + 1) % n)})
		if i%3 == 0 {
			edges = append(edges, [2]graph.NodeID{graph.NodeID(i), graph.NodeID((i*i + 7) % n)})
		}
	}
	return graph.MustFromEdges(n, edges)
}

func TestComputeCtxCancellation(t *testing.T) {
	g := ctxTestGraph()
	schemes := []struct {
		name string
		opts Options
	}{
		{"power", Options{}},
		{"gauss-seidel", Options{Method: MethodGaussSeidel}},
		{"adaptive", Options{AdaptiveFreeze: 1e-9}},
		{"parallel", Options{Parallelism: 4}},
	}
	for _, s := range schemes {
		t.Run(s.name+"/pre-cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := ComputeCtx(ctx, g, s.opts)
			if err == nil || res != nil {
				t.Fatalf("res=%v err=%v, want nil result and an error", res, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not wrap context.Canceled", err)
			}
			if !strings.Contains(err.Error(), "cancelled at iteration") {
				t.Errorf("error %q does not report the iteration reached", err)
			}
		})
		t.Run(s.name+"/mid-run", func(t *testing.T) {
			opts := s.opts
			opts.Tolerance = 1e-300
			opts.MaxIterations = 800
			// One check passes, the second cancels: after iteration 2 for
			// the sequential schemes, earlier for the parallel one (its
			// workers also poll before each chunk). Either way the run is
			// abandoned long before gauss-seidel can bottom out at an
			// exact-zero delta.
			res, err := ComputeCtx(newCountdown(1), g, opts)
			if err == nil || res != nil {
				t.Fatalf("res=%v err=%v, want nil result and an error", res, err)
			}
			if !errors.Is(err, context.Canceled) {
				t.Errorf("error %v does not wrap context.Canceled", err)
			}
		})
		t.Run(s.name+"/background matches plain", func(t *testing.T) {
			plain, err := Compute(g, s.opts)
			if err != nil {
				t.Fatalf("Compute: %v", err)
			}
			withCtx, err := ComputeCtx(context.Background(), g, s.opts)
			if err != nil {
				t.Fatalf("ComputeCtx: %v", err)
			}
			if plain.Iterations != withCtx.Iterations {
				t.Errorf("iterations differ: %d vs %d", plain.Iterations, withCtx.Iterations)
			}
			if d := L1(plain.Scores, withCtx.Scores); d != 0 {
				t.Errorf("scores differ by L1 %v", d)
			}
		})
	}
}
