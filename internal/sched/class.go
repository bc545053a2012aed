package sched

// Class is a scheduling class: the unit of policy in the Linux 2.6.23+
// scheduler framework the paper builds on. The Scheduler Core treats
// classes as an ordered list — no task from a class is ever picked while a
// higher class has runnable tasks — and delegates every policy decision
// (queueing discipline, timeslices, preemption, placement, balancing) to
// the class.
type Class interface {
	// Name identifies the class ("rt", "hpc", "fair", "idle").
	Name() string

	// Policies lists the scheduling policies served by this class. The
	// slice may be shared between calls; callers must not modify it.
	Policies() []Policy

	// NewRQ creates the class's per-CPU run queue.
	NewRQ(k *Kernel, cpu int) ClassRQ

	// SelectCPU chooses the CPU a newly runnable task should be enqueued
	// on. It must respect t's affinity mask.
	SelectCPU(k *Kernel, t *Task, wakeup bool) int

	// TaskSleep is invoked when a task of this class blocks voluntarily
	// (end of a compute phase, in the paper's iteration model).
	TaskSleep(k *Kernel, t *Task)

	// TaskWake is invoked when a task of this class becomes runnable after
	// sleeping (start of a new iteration).
	TaskWake(k *Kernel, t *Task)
}

// ClassRQ is a class's per-CPU run queue. The currently running task is
// never kept inside the queue: PickNext removes the returned task, and the
// core re-enqueues a preempted-but-runnable task via Enqueue(wakeup=false).
type ClassRQ interface {
	// Enqueue adds a runnable task. wakeup distinguishes a fresh wakeup
	// from a requeue after preemption or round-robin rotation.
	Enqueue(t *Task, wakeup bool)

	// Dequeue removes a queued task (migration, class switch, exit while
	// runnable). It is never called for the running task.
	Dequeue(t *Task)

	// PickNext removes and returns the best task to run next, or nil.
	PickNext() *Task

	// Tick is called from the periodic scheduler tick while t (of this
	// class) is running on this CPU. Implementations request preemption
	// via Kernel.Resched.
	Tick(t *Task)

	// CheckPreempt reports whether the newly woken task should preempt
	// curr, both being of this class.
	CheckPreempt(curr, woken *Task) bool

	// Len returns the number of queued tasks (excluding the running one).
	Len() int

	// Steal removes and returns one migratable task for the benefit of
	// dstCPU (load balancing pull), or nil. The returned task must pass
	// MayRunOn(dstCPU).
	Steal(dstCPU int) *Task
}

// TickHorizon is an optional ClassRQ extension that enables tickless
// operation on busy CPUs (NO_HZ_FULL): a class that can bound how long its
// Tick stays a no-op, and apply the bookkeeping of a run of such ticks in
// one call, lets the kernel park the periodic tick and settle the elided
// instants in O(1) per stretch. A ClassRQ that does not implement it
// simply never has its busy ticks parked.
type TickHorizon interface {
	// TickNoops returns how many consecutive future ticks are provably
	// free of Resched requests while t keeps running on this CPU and the
	// class queue (membership, weights, discipline) stays unchanged — the
	// kernel wakes the parked tick on every such local change, so the
	// bound only needs to hold under frozen queue state. 0 means the very
	// next tick may act. Implementations may return any sufficiently
	// large value for "never": the kernel caps the horizon far below
	// MaxInt32 (ticklessParkCap).
	TickNoops(t *Task) int

	// ElideTicks applies the bookkeeping (vruntime, quantum) of n
	// consecutive elided ticks of t, each spanning exactly one tick
	// period of t's run time, leaving the same bits n Tick calls would
	// leave. The ticks lie within a TickNoops bound, so none of them
	// reschedules, and the kernel has already accounted t's run time
	// through the last of them.
	ElideTicks(t *Task, n int)
}

// tickNoopsForever is a conventional TickNoops return for "no future tick
// can ever reschedule under frozen queue state".
const tickNoopsForever = int(^uint32(0) >> 1) // MaxInt32
