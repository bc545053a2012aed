package batch

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// FailureKind classifies why a job attempt (or the whole job) failed.
type FailureKind int

const (
	// KindError: fn returned a non-nil error (this includes the simulation
	// layer's own watchdog aborts — a stalled sim clock surfaces as an
	// error carrying the diagnostic dump).
	KindError FailureKind = iota
	// KindPanic: fn panicked; the panic was recovered on the attempt
	// goroutine and recorded with its stack.
	KindPanic
	// KindTimeout: the attempt exceeded the per-attempt wall-clock deadline
	// but returned promptly once its context was cancelled.
	KindTimeout
	// KindWedged: the attempt exceeded the deadline and did not return
	// within the grace period after cancellation — a stuck handoff the
	// cooperative machinery cannot reach. Its goroutine is abandoned.
	KindWedged
	// KindGoexit: the attempt's goroutine ended by runtime.Goexit without
	// returning; Err is a *GoexitError.
	KindGoexit
)

func (k FailureKind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindTimeout:
		return "timeout"
	case KindWedged:
		return "wedged"
	case KindGoexit:
		return "goexit"
	default:
		return fmt.Sprintf("FailureKind(%d)", int(k))
	}
}

// JobError records the final failure of one job after all retries, plus the
// trail of per-attempt failures that led there.
type JobError struct {
	// Index is the job's position in the input slice.
	Index int
	// Attempts is how many attempts ran (1 + retries actually used).
	Attempts int
	// Kind classifies the final attempt's failure.
	Kind FailureKind
	// Err is the final attempt's error (a synthesized one for panics,
	// timeouts and wedges).
	Err error
	// Stack holds the panic stack when Kind == KindPanic.
	Stack string
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("batch: job %d failed (%s after %d attempt(s)): %v",
		e.Index, e.Kind, e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// HardenedOptions configures MapHardened.
type HardenedOptions struct {
	Options

	// Timeout is the per-attempt wall-clock deadline. 0 disables it: an
	// attempt then only ends when fn returns or the batch context is
	// cancelled.
	Timeout time.Duration
	// MaxRetries is how many times a failed job is retried (so a job runs
	// at most 1+MaxRetries attempts). Each retry passes an incremented
	// attempt number to fn, which should derive a fresh seed from it.
	MaxRetries int
	// Backoff is the wall-clock pause before each retry (scaled linearly:
	// the r-th retry waits r×Backoff). 0 retries immediately.
	Backoff time.Duration
	// Grace is how long after cancelling a timed-out attempt's context the
	// pool waits for fn to return before declaring the attempt wedged and
	// abandoning its goroutine. <= 0 uses DefaultGrace.
	Grace time.Duration
}

// DefaultGrace bounds how long a timed-out attempt may take to observe its
// cancelled context before being written off as wedged. A live replica
// observes cancellation within a few engine interrupt polls — microseconds
// of wall time — so a full second of grace only ever delays reporting of a
// genuinely stuck attempt.
const DefaultGrace = time.Second

// attemptResult carries one attempt's outcome off its goroutine.
type attemptResult[O any] struct {
	out      O
	err      error
	panicked bool
	exited   bool // ended by runtime.Goexit
	panicVal any
	stack    string
}

// MapHardened is Map for unattended fleets: each job runs with panic
// isolation (a panicking attempt is recovered and recorded, never crashing
// the process), a per-attempt wall-clock deadline, bounded retry with
// backoff on fresh attempt numbers, and a wedge watchdog that abandons an
// attempt which ignores its cancelled context. Results are in submission
// order; failed jobs leave zero values. The second return value lists the
// jobs that exhausted their attempts, ordered by index (deterministic:
// derived from the ordered jobs, not completion order). The error return
// reports batch-level cancellation only.
//
// Determinism caveat: whether a given job fails by timeout is wall-clock
// dependent by nature. Fault-free runs take no failure path and remain
// bit-identical at any worker count; the hardening only shapes what happens
// after something already went wrong.
func MapHardened[I, O any](ctx context.Context, opts HardenedOptions, items []I,
	fn func(ctx context.Context, index, attempt int, item I) (O, error)) ([]O, []*JobError, error) {

	grace := opts.Grace
	if grace <= 0 {
		grace = DefaultGrace
	}
	jobErrs := make([]*JobError, len(items))
	wrapped := func(jctx context.Context, index int, item I) O {
		var lastErr *JobError
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				// Backoff, abandoned early on batch cancellation.
				select {
				case <-jctx.Done():
					jobErrs[index] = lastErr
					var zero O
					return zero
				case <-time.After(time.Duration(attempt) * opts.Backoff):
				}
			}
			out, aerr := runAttempt(jctx, opts.Timeout, grace, index, attempt, item, fn)
			if aerr == nil {
				jobErrs[index] = nil
				return out
			}
			lastErr = aerr
			if attempt >= opts.MaxRetries || jctx.Err() != nil {
				jobErrs[index] = lastErr
				var zero O
				return zero
			}
		}
	}
	out, err := Map(ctx, opts.Options, items, wrapped)
	var failed []*JobError
	for _, je := range jobErrs {
		if je != nil {
			failed = append(failed, je)
		}
	}
	return out, failed, err
}

// runAttempt executes one attempt of one job on its own goroutine, guarded
// by recover, the per-attempt deadline and the wedge grace period.
func runAttempt[I, O any](ctx context.Context, timeout, grace time.Duration,
	index, attempt int, item I,
	fn func(ctx context.Context, index, attempt int, item I) (O, error)) (O, *JobError) {

	actx := ctx
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	// Buffered so an abandoned (wedged) attempt's late send never blocks
	// its goroutine forever.
	resCh := make(chan attemptResult[O], 1)
	go func() {
		var r attemptResult[O]
		returned := false
		defer func() {
			if v := recover(); v != nil {
				r.panicked = true
				r.panicVal = v
				r.stack = string(debug.Stack())
			} else if !returned {
				r.exited = true
			}
			resCh <- r
		}()
		r.out, r.err = fn(actx, index, attempt, item)
		returned = true
	}()

	var timer *time.Timer
	var deadline <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		deadline = timer.C
	}

	var zero O
	select {
	case r := <-resCh:
		return settleResult(index, attempt, r)
	case <-ctx.Done():
		// Batch cancelled: tell the attempt, give it the grace window to
		// unwind (its kernel teardown reaps parked goroutines), then write
		// it off.
		cancel()
		select {
		case r := <-resCh:
			// An attempt that still finished keeps its result; Map reports
			// the batch-level cancellation either way.
			return settleResult(index, attempt, r)
		case <-time.After(grace):
			return zero, &JobError{Index: index, Attempts: attempt + 1, Kind: KindWedged,
				Err: fmt.Errorf("batch: job %d attempt %d did not return within %v of batch cancellation (goroutine abandoned)",
					index, attempt, grace)}
		}
	case <-deadline:
		// Per-attempt deadline: cooperative abort first, wedge verdict
		// after the grace period.
		cancel()
		select {
		case r := <-resCh:
			if r.panicked || r.exited {
				_, je := settleResult(index, attempt, r)
				return zero, je
			}
			err := r.err
			if err == nil {
				err = fmt.Errorf("batch: job %d attempt %d exceeded the %v deadline", index, attempt, timeout)
			}
			return zero, &JobError{Index: index, Attempts: attempt + 1, Kind: KindTimeout, Err: err}
		case <-time.After(grace):
			return zero, &JobError{Index: index, Attempts: attempt + 1, Kind: KindWedged,
				Err: fmt.Errorf("batch: job %d attempt %d stuck: no progress %v after its %v deadline (cancelled context ignored; goroutine abandoned)",
					index, attempt, grace, timeout)}
		}
	}
}

// settleResult converts a completed attempt's raw result into the success
// or failure shape.
func settleResult[O any](index, attempt int, r attemptResult[O]) (O, *JobError) {
	var zero O
	switch {
	case r.panicked:
		return zero, &JobError{Index: index, Attempts: attempt + 1, Kind: KindPanic,
			Err:   fmt.Errorf("batch: job %d attempt %d panicked: %v", index, attempt, r.panicVal),
			Stack: r.stack}
	case r.exited:
		return zero, &JobError{Index: index, Attempts: attempt + 1, Kind: KindGoexit,
			Err: &GoexitError{Index: index}}
	case r.err != nil:
		return zero, &JobError{Index: index, Attempts: attempt + 1, Kind: KindError, Err: r.err}
	default:
		return r.out, nil
	}
}
