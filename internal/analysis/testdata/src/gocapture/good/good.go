// Package fixture is clean under the gocapture checker: worker-indexed
// slots, mutex-guarded writes, closure-local state, and a documented
// sentinel.
package fixture

import "sync"

// slots is the worker-indexed slot pattern of the sweep pool: each
// goroutine writes only elements of its own range.
func slots(parts []float64, workers int) float64 {
	var wg sync.WaitGroup
	acc := make([]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(parts); i += workers {
				acc[w] += parts[i]
			}
		}(w)
	}
	wg.Wait()
	total := 0.0
	for _, a := range acc {
		total += a
	}
	return total
}

// locked guards the shared accumulator with a mutex.
func locked(parts []float64) float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0.0
	for _, p := range parts {
		wg.Add(1)
		go func(p float64) {
			defer wg.Done()
			mu.Lock()
			total += p
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	return total
}

// local writes only variables declared inside the closure and reports
// through a channel.
func local(parts []float64) float64 {
	out := make(chan float64, len(parts))
	for _, p := range parts {
		go func(p float64) {
			x := p * p
			out <- x
		}(p)
	}
	total := 0.0
	for range parts {
		total += <-out
	}
	return total
}

// sequenced is started after the only writer finished; the ordering is
// established outside what the checker can see, so it is documented.
func sequenced() int {
	ready := 0
	ch := make(chan struct{})
	go func() {
		//arlint:allow gocapture happens-before established via ch
		ready = 1
		close(ch)
	}()
	<-ch
	return ready
}
