// Package batch is the deterministic parallel execution layer under the
// experiment harness. Every simulation run in this repository is a pure
// function of its configuration and seed, so multi-cell evaluations (a
// table's modes × replication seeds, a tunable sweep's grid) are
// embarrassingly parallel. This package fans such job slices out across a
// worker pool while preserving the one property the reproduction cannot
// give up: determinism. Results are returned in submission order no matter
// which worker finished first, derived seeds are a pure function of the
// base seed and the job index, and the statistical aggregates are computed
// from the ordered results — so the same jobs and the same base seed
// produce byte-identical output at any worker count.
//
// The package is deliberately generic (it knows nothing about
// experiments.Config): the experiment harness submits its cells through
// Map, which keeps the dependency arrow pointing downward
// (experiments → batch) and lets sweeps, gang experiments and future
// subsystems reuse the same pool.
package batch

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
)

// Options configures one batch execution.
type Options struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Progress, when non-nil, is called after each job completes with the
	// number of completed jobs and the total. Calls are serialized and
	// done is strictly increasing from 1 to total, but which job finished
	// is deliberately not reported: completion order is scheduling-
	// dependent, and nothing deterministic may be derived from it.
	Progress func(done, total int)
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// GoexitError reports a job whose goroutine ended by runtime.Goexit (a
// t.FailNow inside it, say) instead of returning, so its result slot holds
// the zero value. Index is the lowest such job's position in the input.
type GoexitError struct{ Index int }

func (e *GoexitError) Error() string {
	return fmt.Sprintf("batch: job %d ended by runtime.Goexit without returning a result", e.Index)
}

// Map applies fn to every item on a worker pool and returns the results
// in input order, independent of completion order. fn must be safe to
// call concurrently and should treat (index, item) as its only inputs;
// the ctx it receives is the batch context, for long jobs that can
// observe cancellation.
//
// On cancellation Map stops handing out new jobs, waits for the jobs
// already running to return, and reports ctx.Err(). A job whose goroutine
// ends by runtime.Goexit takes its worker with it: a fresh worker takes
// its place, every other job still runs, and Map reports a *GoexitError.
// The returned slice is always len(items) long; entries whose job never
// ran or never returned are zero values, so a non-nil error means the
// batch is incomplete.
func Map[I, O any](ctx context.Context, opts Options, items []I, fn func(ctx context.Context, index int, item I) O) ([]O, error) {
	n := len(items)
	out := make([]O, n)
	if n == 0 {
		return out, ctx.Err()
	}

	var (
		mu     sync.Mutex
		next   int
		done   int
		exited []int // jobs that ended by runtime.Goexit
	)
	// claim hands out job indices; it is the only scheduling decision in
	// the pool, and it never influences where a result lands in out.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n || ctx.Err() != nil {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	// finish runs the callback under the same lock that advances the
	// counter, so calls cannot interleave or arrive out of order. The
	// callback must therefore be cheap: it stalls job hand-out while it
	// runs.
	finish := func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		if opts.Progress != nil {
			opts.Progress(done, n)
		}
	}

	var wg sync.WaitGroup
	var work func()
	work = func() {
		running := -1 // the claimed job while fn has not returned
		defer func() {
			if running >= 0 {
				// fn never returned, so this goroutine is unwinding by
				// runtime.Goexit (a panic goes on to end the process):
				// record the job and hand the rest to a fresh worker.
				mu.Lock()
				exited = append(exited, running)
				mu.Unlock()
				finish()
				wg.Add(1)
				go work()
			}
			wg.Done()
		}()
		for {
			i, ok := claim()
			if !ok {
				return
			}
			running = i
			out[i] = fn(ctx, i, items[i])
			running = -1
			finish()
		}
	}
	for w := opts.workers(n); w > 0; w-- {
		wg.Add(1)
		go work()
	}
	wg.Wait()

	mu.Lock()
	complete := done == n
	mu.Unlock()
	if len(exited) > 0 {
		return out, &GoexitError{Index: slices.Min(exited)}
	}
	if !complete {
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, nil
}
