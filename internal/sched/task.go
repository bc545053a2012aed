package sched

import (
	"fmt"

	"hpcsched/internal/power5"
	"hpcsched/internal/proc"
	"hpcsched/internal/sim"
)

// State is the lifecycle state of a task.
type State int

const (
	// StateNew: created, never enqueued.
	StateNew State = iota
	// StateRunnable: on a run queue waiting for a CPU.
	StateRunnable
	// StateRunning: currently on a CPU.
	StateRunning
	// StateSleeping: blocked (message wait, timer, barrier...).
	StateSleeping
	// StateExited: body returned.
	StateExited
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateExited:
		return "exited"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Policy is a scheduling policy. Policies map onto scheduling classes; the
// class list order (real-time, then HPC when registered, then fair, then
// idle) gives the implicit inter-class prioritisation of the framework.
type Policy int

const (
	// PolicyNormal is SCHED_NORMAL (previously SCHED_OTHER): the CFS class.
	PolicyNormal Policy = iota
	// PolicyBatch is SCHED_BATCH: CFS, batch hint.
	PolicyBatch
	// PolicyFIFO is SCHED_FIFO: real-time, run to completion or yield.
	PolicyFIFO
	// PolicyRR is SCHED_RR: real-time round robin.
	PolicyRR
	// PolicyHPC is the paper's SCHED_HPC policy, served by the HPC class
	// registered between the real-time and fair classes.
	PolicyHPC
	// PolicyIdle is SCHED_IDLE.
	PolicyIdle
)

func (p Policy) String() string {
	switch p {
	case PolicyNormal:
		return "SCHED_NORMAL"
	case PolicyBatch:
		return "SCHED_BATCH"
	case PolicyFIFO:
		return "SCHED_FIFO"
	case PolicyRR:
		return "SCHED_RR"
	case PolicyHPC:
		return "SCHED_HPC"
	case PolicyIdle:
		return "SCHED_IDLE"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Task is the kernel's per-process descriptor (the task_struct analogue).
type Task struct {
	PID    int
	Name   string
	policy Policy
	state  State

	// CPU is the CPU the task runs on (or last ran on).
	CPU int
	// Affinity is a bitmask of CPUs the task may run on; 0 means "all".
	Affinity uint64

	// Nice is the CFS nice level (-20..19).
	Nice int
	// RTPrio is the real-time priority (0..99, higher wins) for
	// SCHED_FIFO/SCHED_RR tasks.
	RTPrio int

	// HWPrio is the POWER5 hardware thread priority the kernel programs
	// into the context whenever this task is dispatched. The HPC class
	// heuristics drive this field; for every other class it stays at the
	// default (medium).
	HWPrio power5.Priority

	class Class
	// classIdx caches the index of class in the kernel's class list; it is
	// maintained by Kernel.setClass so the hot paths (activate, schedule,
	// tick, preemption checks) index rq.classRQ directly instead of
	// linearly scanning the class list.
	classIdx int
	proc     *proc.Process

	// watched marks the task as registered via Kernel.Watch (coalesced
	// from the former per-kernel watch map; the kernel keeps only the
	// outstanding count).
	watched bool

	// pinned records, at enqueue, that the affinity allowed exactly one
	// CPU: no balancer can pull the task while it stays queued. Kept
	// rather than recomputed so the dequeue matches the enqueue's count
	// even after OfflineCore breaks the affinity (Kernel.nrMigratable).
	pinned bool

	// Pre-bound engine callbacks, allocated once at task creation so the
	// per-burst and per-sleep paths schedule pooled events without
	// allocating a closure each time.
	burstFn func() // k.burstDone(t)
	wakeFn  func() // k.Wake(t)

	// Execution engine state: remaining is the work left in the current
	// compute burst, expressed in nanoseconds at single-thread speed.
	remaining   float64
	pendingReq  proc.Request // first request, before it is consumed
	needsResume bool         // proc is parked in Invoke awaiting a reply
	resumeVal   any          // reply for the pending resume (fused waits)
	// steps/stepNext hold the unconsumed tail of a batched exchange
	// (Env.Flush): the pump drains them in order — across preemptions and
	// migrations — without a proc round-trip between them.
	steps    []batchStep
	stepNext int
	// waitCheck/waitEnv hold a fused wait (Env.InvokeWait): the pump
	// re-evaluates the check after the steps drain and after every wakeup,
	// keeping the body parked in its single Invoke the whole time.
	waitCheck WaitCheck
	waitEnv   *Env
	finishEv  *sim.Event
	planAt    sim.Time // when the current burst plan was made
	planSpeed float64  // speed assumed by the current plan

	// Accounting (exact, transition-driven).
	SumExec  sim.Time // total on-CPU time
	SumWait  sim.Time // total runnable-but-not-running time
	SumSleep sim.Time // total sleeping time
	// SumWork is the completed compute work, in nominal single-thread
	// nanoseconds: the speed-integrated amount of each burst actually
	// consumed, settled at the same points the burst planner settles
	// `remaining` (completion, preemption, speed change). Unlike SumExec it
	// discounts time spent on a degraded or SMT-contended context, so it is
	// the progress metric the selector's per-phase scoring reads.
	SumWork    float64
	lastUpdate sim.Time // time of the last accounting update
	queuedAt   sim.Time // when the task last became runnable (cache-hot check)
	wakeAt     sim.Time // set while a wakeup latency measurement is open
	wakeValid  bool

	// Wakeup latency stats (scheduler latency in the paper's §V-D sense).
	WakeupCount  int64
	WakeupLatSum sim.Time
	WakeupLatMax sim.Time

	// Migrations counts placements on a CPU different from the previous
	// one (wake placement, balancer pulls and active migrations).
	Migrations int64

	// Per-class embedded state.
	cfs cfsEntity
	rt  rtEntity

	// ClassData lets out-of-tree classes (the HPC class) attach state.
	ClassData any

	// TraceData lets a tracer (trace.Recorder) attach per-task state, so
	// the per-event trace lookup is a type assertion instead of a map
	// access — the same trick ClassData plays for the HPC class.
	TraceData any

	// StartedAt/ExitedAt bound the task's lifetime.
	StartedAt sim.Time
	ExitedAt  sim.Time
}

// Policy returns the task's scheduling policy.
func (t *Task) Policy() Policy { return t.policy }

// SchedState returns the task's lifecycle state.
func (t *Task) SchedState() State { return t.state }

// Class returns the scheduling class currently serving the task.
func (t *Task) Class() Class { return t.class }

// Exited reports whether the task has finished.
func (t *Task) Exited() bool { return t.state == StateExited }

// MayRunOn reports whether the affinity mask allows cpu.
func (t *Task) MayRunOn(cpu int) bool {
	return t.Affinity == 0 || t.Affinity&(1<<uint(cpu)) != 0
}

// WorkDone returns the task's cumulative completed compute work at the
// virtual instant now, in nominal single-thread nanoseconds: SumWork plus
// the speed-scaled progress of the in-flight burst plan, if any. It is a
// pure read — sampling it from an engine event perturbs nothing — and is
// exact at any instant because the planner settles SumWork whenever the
// plan's speed assumption changes.
func (t *Task) WorkDone(now sim.Time) float64 {
	return t.SumWork + t.planned(now)
}

// planned returns the work the in-flight burst plan has completed by now —
// the elapsed time at the planned speed, clamped to [0, remaining] — or 0
// when no plan is in place.
func (t *Task) planned(now sim.Time) float64 {
	if t.finishEv == nil {
		return 0
	}
	return min(max(float64(now-t.planAt)*t.planSpeed, 0), t.remaining)
}

// AvgWakeupLatency returns the mean wakeup→dispatch latency observed.
func (t *Task) AvgWakeupLatency() sim.Time {
	if t.WakeupCount == 0 {
		return 0
	}
	return t.WakeupLatSum / sim.Time(t.WakeupCount)
}

// Utilization returns SumExec / (SumExec+SumWait+SumSleep): the task's
// lifetime CPU utilization, the paper's primary per-process metric
// ("% Comp" in Tables III-VI).
func (t *Task) Utilization() float64 {
	total := t.SumExec + t.SumWait + t.SumSleep
	if total == 0 {
		return 0
	}
	return float64(t.SumExec) / float64(total)
}

func (t *Task) String() string {
	return fmt.Sprintf("%s(pid=%d %s %s cpu=%d hw=%v)",
		t.Name, t.PID, t.policy, t.state, t.CPU, t.HWPrio)
}
