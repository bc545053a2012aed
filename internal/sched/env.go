package sched

import (
	"hpcsched/internal/power5"
	"hpcsched/internal/proc"
	"hpcsched/internal/sim"
)

// Request types exchanged between process bodies and the kernel pump. They
// travel as pointers into the Env's scratch fields: boxing a pointer into
// the proc.Request interface does not allocate, while boxing a value struct
// would cost one heap allocation per simulated request.
type (
	yieldReq    struct{}
	setSchedReq struct {
		policy Policy
		rtPrio int
	}
	setNiceReq   struct{ nice int }
	setHWPrioReq struct{ prio power5.Priority }
)

// stepKind tags one deferred operation inside a batched exchange.
type stepKind uint8

const (
	// stepCompute adds d of work to the task's current burst.
	stepCompute stepKind = iota
	// stepAfter schedules fn on the engine d after the virtual instant the
	// step is reached — i.e. after every earlier step in the batch has
	// completed. The MPI transport uses it to post message deliveries at
	// the moment the send overhead has been charged.
	stepAfter
	// stepSleep deactivates the task and arms its wake d later — the
	// former sleep request, fused into the batch so the flush and the
	// sleep share one rendezvous. It may sit mid-batch (DeferSleep): the
	// steps after it execute once the wake-side pump resumes the task,
	// with the body parked in the flush Invoke the whole time.
	stepSleep
	// stepBlock deactivates the task until some other party wakes it —
	// the former block request, fused the same way.
	stepBlock
)

// batchStep is one deferred operation. Steps are value types in a reusable
// per-Env slice: batching allocates nothing in steady state.
type batchStep struct {
	kind stepKind
	d    sim.Time
	fn   func()
}

// batchReq hands a whole slice of deferred steps to the kernel in a single
// rendezvous. The kernel consumes the steps in order through the same pump
// loop that serves individual requests — the virtual-time behaviour is
// bit-identical to issuing them one by one; only the per-request goroutine
// handoffs disappear.
type batchReq struct{ steps []batchStep }

// WaitCheck is an engine-side wait predicate (see Env.InvokeWait). It runs
// on the pump, at the virtual instant every deferred step before it has
// completed and again after every wakeup of the task, and reports whether
// the wait is over; reply is handed to the body as InvokeWait's return
// value. The check may defer work through the Env (receive-overhead
// charges); the pump burns it and re-invokes the check, so a check can
// interleave burning and re-inspection without ever resuming the body.
type WaitCheck func() (done bool, reply any)

// waitReq fuses a batch flush, a blocking wait and its wake-side
// re-checks into a single rendezvous: the pump drains the steps, then
// evaluates check — blocking the task while it reports false — and only
// resumes the body once it reports done. A Recv that misses, blocks and
// wakes n times costs one goroutine handoff instead of 2+n.
type waitReq struct {
	steps []batchStep
	check WaitCheck
	env   *Env
}

// batchCapacity pre-sizes the per-process step buffer. Reaching it simply
// forces an intermediate flush, so a pathological defer-only loop cannot
// grow the buffer (or starve the engine) unboundedly.
const batchCapacity = 32

// Env is the system-call surface available to a simulated process body. It
// is only valid on the body's goroutine.
//
// Lock-step discipline: while the body runs, the simulation engine is
// parked, so Env methods (and higher layers such as the MPI runtime, which
// call Kernel methods directly from the body goroutine) never race with
// engine-side code. The same discipline makes the scratch requests below
// safe: the kernel consumes a request before Invoke returns control to the
// body, so each scratch value is reused only after its previous use is
// fully processed.
//
// Deferred batching: DeferCompute/DeferAfter queue work without yielding to
// the kernel; Flush hands the whole queue over in one rendezvous. Every
// observing call (Now, Compute, Sleep, Block, Yield, the setters) flushes
// first, so a body can never see state from before its own deferred work —
// the timeline it observes is exactly the unbatched one.
type Env struct {
	h      *proc.Handle
	kernel *Kernel
	task   *Task

	// batch holds deferred steps between flushes, allocated by the first
	// push; batchRq is the reusable request that carries it. waitRq
	// carries fused waits (InvokeWait). enginePush marks that the pump is
	// running a WaitCheck on this Env: pushes then grow the buffer instead
	// of flushing, since the engine must never rendezvous with itself.
	batch      []batchStep
	batchRq    batchReq
	waitRq     waitReq
	enginePush bool

	// Reusable request scratch, one per request type (zero allocations per
	// system call in steady state). Computes, sleeps and blocks have no
	// scratch: they travel as steps of the deferred batch.
	yreq    yieldReq
	schedRq setSchedReq
	niceRq  setNiceReq
	hwRq    setHWPrioReq
}

// Task returns the kernel task backing this process.
func (e *Env) Task() *Task { return e.task }

// Kernel returns the kernel. Higher-level runtimes (MPI) use it to wake
// peers and schedule deliveries; plain workload bodies should not need it.
func (e *Env) Kernel() *Kernel { return e.kernel }

// Now returns the current virtual time, flushing deferred work first: the
// time a body observes always includes everything it has already asked for.
func (e *Env) Now() sim.Time {
	e.Flush()
	return e.kernel.Now()
}

// DeferCompute queues d nanoseconds of work without yielding to the kernel.
// The work is executed when the batch is flushed; Compute is DeferCompute
// plus Flush.
func (e *Env) DeferCompute(d sim.Time) {
	if d < 0 {
		panic("sched: DeferCompute with negative duration")
	}
	e.push(batchStep{kind: stepCompute, d: d})
}

// DeferAfter queues "schedule fn on the engine d from then" to happen at
// the virtual instant every earlier step of the batch has completed. It is
// the batched analogue of calling Engine.After from the body between two
// Computes.
func (e *Env) DeferAfter(d sim.Time, fn func()) {
	if d < 0 {
		panic("sched: DeferAfter with negative delay")
	}
	if fn == nil {
		panic("sched: DeferAfter with nil callback")
	}
	e.push(batchStep{kind: stepAfter, d: d, fn: fn})
}

func (e *Env) push(s batchStep) {
	if e.batch == nil {
		e.batch = make([]batchStep, 0, batchCapacity)
	} else if len(e.batch) == cap(e.batch) && !e.enginePush {
		e.Flush()
	}
	e.batch = append(e.batch, s)
}

// Deferred reports whether the batch holds unflushed steps.
func (e *Env) Deferred() bool { return len(e.batch) > 0 }

// Flush hands every deferred step to the kernel in a single rendezvous and
// blocks until all of them have completed. With an empty batch it is free.
//
// Callers that are about to Block must flush before registering themselves
// with whatever will wake them (e.g. mpi's waiting keys): flushing burns
// deferred compute, and a wakeup arriving while the task still runs is a
// model bug the kernel panics on.
func (e *Env) Flush() {
	if len(e.batch) == 0 {
		return
	}
	e.batchRq.steps = e.batch
	e.h.Invoke(&e.batchRq)
	e.batch = e.batch[:0]
}

// Compute executes d nanoseconds of work measured at single-thread speed.
// The call returns when the work completes — including any deferred steps
// queued before it, which ride the same rendezvous; how long that takes in
// virtual time depends on scheduling and on the hardware priorities of the
// core's two contexts.
func (e *Env) Compute(d sim.Time) {
	e.DeferCompute(d)
	e.Flush()
}

// Sleep blocks the process for d of virtual time. The sleep rides the
// deferred batch as its final step, so a defer-then-sleep sequence (the
// daemon duty cycle, a rank's post-exchange nap) reaches the kernel as a
// single rendezvous; the timeline is exactly the flush-then-sleep one.
func (e *Env) Sleep(d sim.Time) {
	e.DeferSleep(d)
	e.Flush()
}

// DeferSleep queues a sleep without yielding to the kernel — it may sit
// mid-batch, with later steps executing after the wake, exactly as if the
// body had issued them then. A body whose inter-step values do not depend
// on engine state it has yet to observe (a daemon drawing from its own
// RNG) can queue whole duty cycles ahead and let the capacity auto-flush
// amortise the rendezvous over many cycles.
func (e *Env) DeferSleep(d sim.Time) {
	if d < 0 {
		panic("sched: Sleep with negative duration")
	}
	e.push(batchStep{kind: stepSleep, d: d})
}

// Block parks the process until some other party calls Kernel.Wake on its
// task. Like Sleep, it rides the deferred batch as its final step — one
// rendezvous for flush and block together. reason is for diagnostics only.
func (e *Env) Block(reason string) {
	e.push(batchStep{kind: stepBlock, d: 0})
	e.Flush()
}

// InvokeWait flushes the deferred batch and parks the body until check —
// evaluated on the engine side of the rendezvous — reports done, returning
// its reply. The check first runs at the virtual instant every deferred
// step has completed (exactly where a Flush-then-inspect sequence would
// run body-side code) and again after every wakeup of the task, so a
// blocking protocol loop (inspect → block → wake → re-inspect) costs one
// goroutine handoff in total instead of one per wake.
//
// A check that consumes state and needs work burned before re-inspecting
// (receive-overhead charges) defers it through the Env: the pump drains
// those steps and re-invokes the check. Work the check leaves deferred
// when it completes stays in the batch and rides the body's next exchange,
// exactly like work deferred body-side.
func (e *Env) InvokeWait(check WaitCheck) any {
	if check == nil {
		panic("sched: InvokeWait with nil check")
	}
	e.waitRq.steps = e.batch
	e.waitRq.check = check
	e.waitRq.env = e
	// The kernel owns the batch buffer until the wait completes (it resets
	// it before the check can refill it); no body-side reset here.
	return e.h.Invoke(&e.waitRq)
}

// Yield releases the CPU, staying runnable (sched_yield).
func (e *Env) Yield() {
	e.Flush()
	e.h.Invoke(&e.yreq)
}

// SetScheduler switches the process to another scheduling policy — the
// one-line change the paper asks of HPC applications
// (sched_setscheduler(SCHED_HPC)). rtPrio is only meaningful for the
// real-time policies.
func (e *Env) SetScheduler(p Policy, rtPrio int) {
	e.Flush()
	e.schedRq = setSchedReq{policy: p, rtPrio: rtPrio}
	e.h.Invoke(&e.schedRq)
}

// SetNice adjusts the CFS nice level.
func (e *Env) SetNice(nice int) {
	e.Flush()
	e.niceRq.nice = nice
	e.h.Invoke(&e.niceRq)
}

// SetHWPrio sets the process's own hardware priority, as a user-level
// program could via the or-nop interface. The kernel clamps nothing here:
// privilege is checked when the priority is applied to the context
// (supervisor level, since the kernel performs the write).
func (e *Env) SetHWPrio(p power5.Priority) {
	if !p.Valid() {
		panic("sched: invalid hardware priority")
	}
	e.Flush()
	e.hwRq.prio = p
	e.h.Invoke(&e.hwRq)
}
