package sched

import "hpcsched/internal/sim"

// Options configures the kernel. The defaults mirror a Linux 2.6.24 build
// on a 4-context POWER5 (the paper's testbed) closely enough for the
// scheduling behaviour the paper depends on.
type Options struct {
	// TickPeriod is the scheduler tick (1 ms ≙ HZ=1000).
	TickPeriod sim.Time
	// ContextSwitchCost delays the first burst of a task after a switch.
	ContextSwitchCost sim.Time

	// CFSLatency is sysctl_sched_latency: the period within which every
	// runnable CFS task should run once (default 20 ms in 2.6.24).
	CFSLatency sim.Time
	// CFSMinGranularity floors the CFS timeslice (default 4 ms).
	CFSMinGranularity sim.Time
	// CFSWakeupGranularity damps wakeup preemption (default 10 ms): a
	// woken task preempts only if its vruntime lag exceeds it. This is
	// the parameter behind the scheduler-latency effect in the paper's
	// SIESTA experiment.
	CFSWakeupGranularity sim.Time

	// RTRRTimeslice is the SCHED_RR quantum (default 100 ms).
	RTRRTimeslice sim.Time

	// MigrationCost is sysctl_sched_migration_cost: a task that became
	// runnable less than this long ago is considered cache-hot and is not
	// migrated by the load balancer (default 2 ms — above the length of a
	// daemon burst, below a CFS timeslice). Without it, a rank briefly
	// preempted by a background daemon gets stolen by a momentarily idle
	// CPU and the one-rank-per-context layout unravels, which the real
	// kernel's load-average-based balancing does not do.
	MigrationCost sim.Time

	// SMTSnoozeDelay models the POWER5 smt_snooze_delay: a context idle
	// for longer than this drops its hardware priority to very-low (1),
	// freeing nearly all decode slots for the sibling. 0 disables snooze
	// (the calibrated default: the paper's Table III/IV numbers imply the
	// idle loop kept spinning at normal priority on their machine).
	SMTSnoozeDelay sim.Time

	// NoTicklessIdle forces the per-CPU tick to fire every period even on
	// provably idle CPUs, disabling the tickless-idle optimisation. The
	// simulated timeline is identical either way — the flag exists so the
	// equivalence tests can pin exactly that, and as an escape hatch.
	NoTicklessIdle bool

	// NoTicklessBusy forces the per-CPU tick to fire every period even
	// while the CPU runs a task whose upcoming ticks are provably no-ops
	// (the NO_HZ_FULL-style busy elision — see Kernel.maybeParkBusyTick).
	// As with NoTicklessIdle, the simulated timeline is identical either
	// way: the flag exists for the differential equivalence tests and as
	// an escape hatch.
	NoTicklessBusy bool
}

// DefaultOptions returns the 2.6.24-flavoured defaults.
func DefaultOptions() Options {
	return Options{
		TickPeriod:           1 * sim.Millisecond,
		ContextSwitchCost:    4 * sim.Microsecond,
		CFSLatency:           20 * sim.Millisecond,
		CFSMinGranularity:    4 * sim.Millisecond,
		CFSWakeupGranularity: 10 * sim.Millisecond,
		RTRRTimeslice:        100 * sim.Millisecond,
		MigrationCost:        2 * sim.Millisecond,
	}
}

// withDefaults fills zero fields with defaults.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.TickPeriod <= 0 {
		o.TickPeriod = d.TickPeriod
	}
	if o.ContextSwitchCost <= 0 {
		o.ContextSwitchCost = d.ContextSwitchCost
	}
	if o.CFSLatency <= 0 {
		o.CFSLatency = d.CFSLatency
	}
	if o.CFSMinGranularity <= 0 {
		o.CFSMinGranularity = d.CFSMinGranularity
	}
	if o.CFSWakeupGranularity <= 0 {
		o.CFSWakeupGranularity = d.CFSWakeupGranularity
	}
	if o.RTRRTimeslice <= 0 {
		o.RTRRTimeslice = d.RTRRTimeslice
	}
	if o.MigrationCost <= 0 {
		o.MigrationCost = d.MigrationCost
	}
	return o
}

// Tracer receives scheduling events for trace generation. All methods are
// called with the virtual timestamp of the event.
type Tracer interface {
	// TaskState records a task state transition. cpu is meaningful for
	// StateRunning (the CPU dispatched on); otherwise it is the last CPU.
	TaskState(now sim.Time, t *Task, s State, cpu int)
	// TaskHWPrio records a change of the task's hardware priority.
	TaskHWPrio(now sim.Time, t *Task, prio int)
}
