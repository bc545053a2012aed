// Package proc implements the coroutine harness that lets simulated
// programs (MPI ranks, OS daemons) be written as ordinary sequential Go
// functions while the simulation stays fully deterministic.
//
// Each Process runs its body as a runtime coroutine (iter.Pull): the body
// and the engine hand control back and forth in strict lock-step, so at any
// instant exactly one of them makes progress. The result behaves like
// hand-written coroutines — no data races, no scheduling nondeterminism —
// with none of the pain of writing workloads as explicit state machines.
//
// The handoff is the runtime's coroswitch: it swaps the body's goroutine
// and the engine's on the same OS thread, without a trip through the
// scheduler, without atomics of this package's own and without a spare CPU
// to spin on. A request travels out as the coroutine's yielded value; the
// reply travels back through one Process field, written by Resume just
// before it switches to the body. A process that genuinely blocks (a rank
// in an MPI wait) simply stays suspended in its yield and costs nothing
// while the simulation runs elsewhere.
//
// Protocol: the engine calls Start to obtain the body's first request, then
// repeatedly answers requests via Resume, which returns the next request.
// When the body returns, Resume reports done=true. A process abandoned
// mid-request (e.g. the simulation horizon was reached) must be released
// with Kill, which stops the coroutine: the body's pending Invoke panics
// with an unexported sentinel that unwinds it, running its deferred calls.
//
// A body's panic is recovered on the body side and re-raised from Start or
// Resume as a *PanicError naming the process. A body that calls
// runtime.Goexit does not exit quietly: iter.Pull re-raises the Goexit on
// the engine side, so it terminates the goroutine driving the process.
//
// The protocol is batch-friendly: a request is opaque, so a caller can make
// one Invoke carry an entire queue of deferred operations and have the
// engine drain it before replying — one handoff for the whole batch. The
// sched.Env/mpi layers use exactly this (sched.batchReq and sched.waitReq)
// to collapse a rank's per-iteration message traffic, and its
// block/wake/re-check loops, into single exchanges.
package proc

import (
	"errors"
	"fmt"
	"iter"
)

// Request is an opaque service request from a process body to the engine.
// The kernel layer defines the concrete request types (compute bursts,
// blocking receives, ...). Hot request types should be pointers to reusable
// per-process scratch values: boxing a pointer into the interface does not
// allocate, while boxing a value struct does — see sched.Env.
type Request any

// errKilled unwinds a killed process body. It is deliberately unexported:
// bodies must not recover from it.
var errKilled = errors.New("proc: process killed")

// PanicError wraps a panic raised inside a process body so the engine can
// attribute it.
type PanicError struct {
	Process string
	Value   any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("proc: panic in process %q: %v", e.Process, e.Value)
}

// Process is one simulated sequential program.
type Process struct {
	id     int
	name   string
	body   func(*Handle)
	handle Handle

	// The coroutine: next switches to the body until its next yield, stop
	// unwinds it, and yield is the body-side half that Invoke calls.
	next  func() (Request, bool)
	stop  func()
	yield func(Request) bool

	reply    any // Resume's answer to the pending Invoke
	panicVal any // the body's recovered panic; nil if it did not panic

	started bool
	done    bool
	killed  bool
}

// New creates a process. The body does not start executing until Start is
// called.
func New(id int, name string, body func(*Handle)) *Process {
	if body == nil {
		panic("proc: nil body")
	}
	p := &Process{id: id, name: name, body: body}
	p.handle.p = p
	return p
}

// ID returns the identifier the process was created with.
func (p *Process) ID() int { return p.id }

// Name returns the human-readable name the process was created with.
func (p *Process) Name() string { return p.name }

// Done reports whether the body has returned (or the process was killed).
func (p *Process) Done() bool { return p.done }

// Handle is the body-side endpoint. It is only valid inside the body, for
// the lifetime of the body function.
type Handle struct {
	p *Process
}

// Process returns the process this handle belongs to.
func (h *Handle) Process() *Process { return h.p }

// Invoke submits a request to the engine and suspends the body until the
// engine answers via Resume. It returns the engine's reply. If the engine
// kills the process instead, Invoke panics with errKilled, unwinding the
// body.
func (h *Handle) Invoke(req Request) any {
	p := h.p
	if !p.yield(req) {
		panic(errKilled)
	}
	r := p.reply
	p.reply = nil
	return r
}

// Start launches the body and returns its first request. done is true if
// the body returned without issuing any request.
// Starting a process that was already killed is a no-op reporting done=true:
// a watchdog abort can Kill a whole kernel's process table, including
// processes whose bodies were created but never launched, and launching one
// of those afterwards would run a body the caller believes dead.
func (p *Process) Start() (req Request, done bool) {
	if p.killed {
		return nil, true
	}
	if p.started {
		panic("proc: Start called twice")
	}
	p.started = true
	p.next, p.stop = iter.Pull(p.run)
	return p.pull()
}

// Resume delivers the engine's reply to the body's pending Invoke and
// returns the body's next request. done is true when the body has returned,
// in which case req is nil and the process must not be resumed again.
func (p *Process) Resume(reply any) (req Request, done bool) {
	if !p.started {
		panic("proc: Resume before Start")
	}
	if p.done {
		panic(fmt.Sprintf("proc: Resume on finished process %q", p.name))
	}
	p.reply = reply
	return p.pull()
}

// Kill releases a process that is suspended inside Invoke, unwinding its
// body. It is idempotent. Killing a process that already finished, or one
// that was never started, is a no-op beyond marking it done.
func (p *Process) Kill() {
	if p.killed || p.done {
		p.done = true
		return
	}
	p.killed = true
	p.done = true
	if p.started {
		p.stop()
	}
}

// pull runs the body to its next request or to its end.
func (p *Process) pull() (Request, bool) {
	req, ok := p.next()
	if ok {
		return req, false
	}
	p.done = true
	if p.panicVal != nil {
		panic(&PanicError{Process: p.name, Value: p.panicVal})
	}
	return nil, true
}

// run is the coroutine body: it runs the process body and turns a panic
// into state pull re-raises on the engine side. The unwind of a Kill is
// silent: the engine has already moved on.
func (p *Process) run(yield func(Request) bool) {
	p.yield = yield
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(error); ok && errors.Is(err, errKilled) {
				return
			}
			p.panicVal = v
		}
	}()
	p.body(&p.handle)
}
