// Package sched reimplements the Linux 2.6.24 scheduler framework the paper
// targets: an ordered list of scheduling classes handled by a Scheduler
// Core, per-CPU run queues, tick-driven accounting, wakeup preemption and
// load balancing — driven by, and driving, the discrete-event simulation of
// a POWER5 chip.
//
// The kernel also embeds the execution engine: the progress of the task
// running on a context depends on the context's hardware priority and on
// the sibling context's occupancy and priority (via the chip's PerfModel),
// exactly the coupling the paper's HPCSched exploits.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"hpcsched/internal/power5"
	"hpcsched/internal/proc"
	"hpcsched/internal/sim"
)

// RunQueue is the per-CPU scheduler state.
type RunQueue struct {
	CPU     int
	kernel  *Kernel
	current *Task
	classRQ []ClassRQ // parallel to kernel.classes

	reschedPending bool
	needResched    bool
	nrQueued       int      // queued (not running) tasks, cached (see noteEnqueued)
	reschedFn      func()   // pre-bound scheduling-pass callback (see Resched)
	switchPenalty  sim.Time // one-shot dispatch delay after a context switch
	idleSince      sim.Time // when the CPU last went idle (MaxTime when busy)

	// Tick-sampled occupancy average (~100 ms horizon), kept in closed
	// form: since the grid instant loadAnchor every applied tick sampled
	// loadS (1 busy, 0 idle), so the value at grid instant loadTicked is
	// loadEval(loadX0, loadS, ticks from loadAnchor to loadTicked) — see
	// loadAvg. A run of same-sample ticks only advances loadTicked; a
	// sample change re-anchors at the current value (applyLoad).
	loadX0     float64
	loadS      float64
	loadAnchor sim.Time
	loadTicked sim.Time

	// Tickless state. tickEv is the CPU's periodic tick event; gridBase
	// anchors its cadence (ticks fire at gridBase + k·period). When the
	// tick body is provably a no-op until some future instant, the event
	// is parked — re-armed past its grid — and tickParked is set. Parked
	// stretches come in two kinds: idle (current == nil; any machine-wide
	// state change that could make an earlier tick observable wakes it,
	// Kernel.tickStateChanged) and busy (tickBusy; a NO_HZ_FULL-style park
	// over a running task, woken only by local transitions — see
	// maybeParkBusyTick). A stretch is settled in O(1) before the load is
	// next read or the ticker resumes: its ticks all sample the same
	// occupancy, so the load needs one applyLoad, and a busy stretch's
	// class bookkeeping one TickHorizon.ElideTicks (settleStretch).
	tickEv     *sim.Event
	gridBase   sim.Time
	lastTickAt sim.Time // last accounted grid instant (fired or elided)
	tickParked bool
	tickBusy   bool // the parked stretch covers a busy CPU (NO_HZ_FULL)
	tickReview bool // woken off the grid; reviewTicks re-decides the park

	// Negative-result cache for idleBalance: after a pull attempt finds
	// nothing, the busiest-scan is provably futile until some queue's
	// membership changes (lbFailGen vs Kernel.queueGen) or a candidate
	// rejected for cache-hotness cools down (lbRetryAt).
	lbFailed  bool
	lbFailGen uint64
	lbRetryAt sim.Time

	// offline marks a CPU removed by Kernel.OfflineCore (fault-injected
	// core loss). Offline CPUs never run tasks, are skipped by every
	// placement and balancing scan, and have no tick event.
	offline bool

	// ContextSwitches counts dispatches of a task different from the
	// previous one.
	ContextSwitches int64
	lastRan         *Task
}

// Offline reports whether this CPU was removed by Kernel.OfflineCore.
func (rq *RunQueue) Offline() bool { return rq.offline }

// Current returns the task on this CPU, or nil when idle.
func (rq *RunQueue) Current() *Task { return rq.current }

// NrRunning returns the number of runnable tasks on this CPU including the
// running one.
func (rq *RunQueue) NrRunning() int {
	n := rq.nrQueued
	if rq.current != nil {
		n++
	}
	return n
}

// NrQueued returns the number of queued (not running) tasks.
func (rq *RunQueue) NrQueued() int { return rq.nrQueued }

// Kernel is the Scheduler Core plus the machinery that executes simulated
// processes on the simulated chip.
type Kernel struct {
	Engine *sim.Engine
	Chip   *power5.Chip
	Opts   Options

	classes []Class
	rqs     []*RunQueue
	tasks   []*Task
	nextPID int

	tracer Tracer

	// watchLeft counts watched tasks (Task.watched) that have not exited.
	watchLeft int

	// nrQueued counts queued (runnable, not running) tasks machine-wide;
	// nrQueuedClass breaks it down per class index. Every class-queue
	// mutation flows through this file (noteEnqueued/noteDequeued), so the
	// counters are exact; idleBalance uses them to skip busiest-scans that
	// cannot find anything — the common case between compute phases —
	// without changing which task any balance pass would pick.
	nrQueued      int
	nrQueuedClass []int

	// nrMigratable counts the queued tasks not pinned to one CPU
	// (Task.pinned). Every Steal tests MayRunOn first, so while it is 0 no
	// balance pull can succeed: idleBalance skips its scan, an idle park
	// needs no negative-result cache, and a pinned task's enqueue or
	// dequeue wakes only its own core's idle parks (queueChanged).
	nrMigratable int

	// queueGen counts class-queue membership changes machine-wide; it
	// versions the per-CPU idle-balance negative-result caches.
	// stealColdAt is pass-local scratch: Steal implementations record —
	// via BalanceCacheHot — the earliest instant a candidate rejected for
	// cache-hotness will cool.
	queueGen    uint64
	stealColdAt sim.Time

	// parkedTicks counts CPUs whose tick event is parked over an *idle*
	// stretch, so the tickStateChanged hook on the hot paths is a single
	// compare when nothing is idle-parked. Busy-parked ticks (tickBusy)
	// are deliberately excluded: they wake only on local transitions of
	// their own CPU, never via tickStateChanged, and their wake hook is a
	// per-RunQueue flag check.
	parkedTicks int

	// stats holds the work counters Stats reports. Its TicksElided counts
	// the settled tick instants parked over — their effects were
	// reproduced in closed form rather than fired as events — so
	// throughput harnesses can normalise by simulated instants
	// (TicksElided) and stay comparable across the tickless changes.
	stats Stats

	// Migration counters by source (diagnostics). MigHotplug counts tasks
	// evacuated from a CPU removed by OfflineCore.
	MigWake, MigSteal, MigActive, MigHotplug int64

	// onlineCPUs counts CPUs not removed by OfflineCore.
	onlineCPUs int
}

// NewKernel builds a kernel for the given chip with the standard Linux
// class order: real-time, fair (CFS), idle. The paper's HPC class is
// registered between real-time and fair via RegisterClassBefore("fair").
func NewKernel(engine *sim.Engine, chip *power5.Chip, opts Options) *Kernel {
	if engine == nil || chip == nil {
		panic("sched: NewKernel with nil engine or chip")
	}
	k := &Kernel{
		Engine:  engine,
		Chip:    chip,
		Opts:    opts.withDefaults(),
		nextPID: 1,
	}
	k.classes = []Class{newRTClass(), newFairClass(), newIdleClass()}
	k.buildRQs()
	chip.SetSpeedChangeHook(k.coreSpeedChanged)
	engine.OnInstantEnd(k.reviewTicks)
	for cpu := 0; cpu < chip.NumCPUs(); cpu++ {
		k.startTicker(cpu)
	}
	return k
}

func (k *Kernel) buildRQs() {
	k.nrQueuedClass = make([]int, len(k.classes))
	k.rqs = make([]*RunQueue, k.Chip.NumCPUs())
	k.onlineCPUs = len(k.rqs)
	block := make([]RunQueue, len(k.rqs)) // one allocation for every queue
	for cpu := range k.rqs {
		rq := &block[cpu]
		*rq = RunQueue{CPU: cpu, kernel: k, classRQ: make([]ClassRQ, len(k.classes))}
		for i, c := range k.classes {
			rq.classRQ[i] = c.NewRQ(k, cpu)
		}
		// One scheduling-pass closure per run queue for its whole lifetime:
		// Resched re-arms pooled events with this callback instead of
		// allocating a closure per pass.
		rq.reschedFn = func() {
			rq.reschedPending = false
			if rq.needResched {
				rq.needResched = false
				k.schedule(rq.CPU)
			}
		}
		k.rqs[cpu] = rq
	}
}

// RegisterClassBefore inserts class c immediately before the class named
// name in the priority order. It must be called before any task is added.
func (k *Kernel) RegisterClassBefore(name string, c Class) {
	if len(k.tasks) > 0 {
		panic("sched: RegisterClassBefore after tasks were added")
	}
	for i, existing := range k.classes {
		if existing.Name() == name {
			// No task exists yet, so every queue is empty: the new class's
			// run queues slot in beside the existing ones, which keep their
			// armed tickers.
			k.classes = slices.Insert(k.classes, i, c)
			k.nrQueuedClass = slices.Insert(k.nrQueuedClass, i, 0)
			for _, rq := range k.rqs {
				rq.classRQ = slices.Insert(rq.classRQ, i, c.NewRQ(k, rq.CPU))
			}
			return
		}
	}
	panic(fmt.Sprintf("sched: no class named %q", name))
}

// Classes returns a copy of the class list in priority order (a copy for
// the same aliasing reason as Tasks: the internal order is load-bearing).
func (k *Kernel) Classes() []Class {
	out := make([]Class, len(k.classes))
	copy(out, k.classes)
	return out
}

// ClassFor returns the class serving the given policy.
func (k *Kernel) ClassFor(p Policy) Class {
	for _, c := range k.classes {
		for _, cp := range c.Policies() {
			if cp == p {
				return c
			}
		}
	}
	panic(fmt.Sprintf("sched: no class serves %v", p))
}

// classRQFor returns the class run queue currently responsible for t.
func (k *Kernel) classRQFor(t *Task) ClassRQ {
	return k.rqs[t.CPU].classRQ[t.classIdx]
}

// setClass assigns a class to a task, caching its index so the hot paths
// never scan the class list. Classes are registered before any task exists
// (RegisterClassBefore enforces this), so a cached index never goes stale.
func (k *Kernel) setClass(t *Task, c Class) {
	t.class = c
	t.classIdx = k.classIndex(c)
}

func (k *Kernel) classIndex(c Class) int {
	for i, x := range k.classes {
		if x == c {
			return i
		}
	}
	panic("sched: unregistered class")
}

// RQ returns the run queue of cpu.
func (k *Kernel) RQ(cpu int) *RunQueue { return k.rqs[cpu] }

// NumCPUs returns the number of CPUs.
func (k *Kernel) NumCPUs() int { return len(k.rqs) }

// Tasks returns a copy of the list of all tasks ever created. The copy is
// deliberate: handing out the internal slice would let callers corrupt
// kernel state by mutating or truncating it.
func (k *Kernel) Tasks() []*Task {
	out := make([]*Task, len(k.tasks))
	copy(out, k.tasks)
	return out
}

// SetTracer installs a trace sink (may be nil).
func (k *Kernel) SetTracer(tr Tracer) { k.tracer = tr }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.Engine.Now() }

// TicksElided returns the number of per-CPU tick instants the tickless
// machinery (idle and busy) parked over so far, including the still-open
// parked stretches. Each elided instant's effects — the load sample for
// idle stretches; the load sample, the running task's accounting and the
// class tick bookkeeping for busy (NO_HZ_FULL) stretches; nothing else, by
// the park proofs — were reproduced in closed form instead of firing an
// event, so a throughput harness normalising by simulated work should count
// Engine.Stats().Fired + TicksElided — that sum is invariant under the
// tickless optimisations for a fixed workload.
func (k *Kernel) TicksElided() int64 {
	n := k.stats.TicksElided
	p := k.Opts.TickPeriod
	for _, rq := range k.rqs {
		if rq.tickParked {
			n += int64((k.Now() - rq.lastTickAt) / p)
		}
	}
	return n
}

// Stats holds the scheduler's deterministic work counters: how its tick
// and balance work was spent, for a cost breakdown by layer.
type Stats struct {
	// TicksElided is TicksElided(): tick instants settled in closed form.
	TicksElided int64
	// TickWakes counts parked ticks woken by a state change (wakeTick).
	TickWakes int64
	// A tick woken off its grid is reviewed when the instant ends
	// (reviewTicks): its parked event is kept in place, moved to a new
	// park instant, or re-armed at the next grid instant.
	ReviewsKept, ReviewsMoved, ReviewsRearmed int64
	// Idle-balance passes with tasks queued: the busiest-queue steal scan
	// ran, was skipped by the negative-result cache, or was skipped
	// because every queued task was pinned to one CPU.
	StealScans, StealCacheSkips, StealPinnedSkips int64
}

// Stats returns a snapshot of the work counters.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.TicksElided = k.TicksElided()
	return s
}

func (k *Kernel) traceState(t *Task, s State, cpu int) {
	if k.tracer != nil {
		k.tracer.TaskState(k.Now(), t, s, cpu)
	}
}

// ---------------------------------------------------------------------------
// Task creation and the request pump
// ---------------------------------------------------------------------------

// TaskSpec configures a new process.
type TaskSpec struct {
	Name     string
	Policy   Policy
	Nice     int
	RTPrio   int
	Affinity uint64          // 0 = any CPU
	HWPrio   power5.Priority // 0 value → default medium
}

// AddProcess creates a task running body and makes it runnable now. The
// body executes up to its first request on the caller's goroutine.
func (k *Kernel) AddProcess(spec TaskSpec, body func(*Env)) *Task {
	t := &Task{
		PID:        k.nextPID,
		Name:       spec.Name,
		policy:     spec.Policy,
		Nice:       spec.Nice,
		RTPrio:     spec.RTPrio,
		Affinity:   spec.Affinity,
		HWPrio:     spec.HWPrio,
		CPU:        -1,
		state:      StateNew,
		StartedAt:  k.Now(),
		lastUpdate: k.Now(),
	}
	if t.HWPrio == 0 {
		t.HWPrio = power5.PrioMedium
	}
	if !t.HWPrio.Valid() {
		panic(fmt.Sprintf("sched: invalid hardware priority %d", t.HWPrio))
	}
	k.setClass(t, k.ClassFor(t.policy))
	t.cfs.init(t)
	t.burstFn = func() { k.burstDone(t) }
	t.wakeFn = func() { k.Wake(t) }
	k.nextPID++
	k.tasks = append(k.tasks, t)

	p := proc.New(t.PID, spec.Name, func(h *proc.Handle) {
		env := &Env{h: h, kernel: k, task: t}
		body(env)
		// Settle any deferred batch the body left behind, so its last sends
		// and overhead charges land before the task exits.
		env.Flush()
	})
	t.proc = p
	req, done := p.Start()
	if done {
		t.state = StateExited
		t.ExitedAt = k.Now()
		return t
	}
	t.pendingReq = req
	k.activate(t, false)
	return t
}

// Watch registers t so RunUntilWatchedExit stops once every watched task
// has exited.
func (k *Kernel) Watch(t *Task) {
	if !t.watched && !t.Exited() {
		t.watched = true
		k.watchLeft++
	}
}

// Watching returns the number of watched tasks that have not exited. The
// engine is stopped when it drops to zero, so an externally-stepped driver
// reads a stopped engine with Watching() == 0 as "this kernel's job is
// done".
func (k *Kernel) Watching() int { return k.watchLeft }

// RunUntilWatchedExit drives the simulation until every watched task exits
// or the horizon passes; it returns the finish time.
func (k *Kernel) RunUntilWatchedExit(horizon sim.Time) sim.Time {
	if k.watchLeft > 0 {
		k.Engine.Run(horizon)
		// Busy-parked stretches survive the stop (the exit that stopped the
		// engine only wakes its own CPU's tick): settle them so readers see
		// the same accounting an always-ticking run would have left.
		k.settleBusyStretches()
	}
	return k.Now()
}

// Settle closes every still-open busy-parked accounting stretch, the step
// RunUntilWatchedExit performs after its Run returns. Externally-stepped
// drivers call it once their stepping is finished, before reading metrics
// or finishing trace recorders: the cluster runner, which advances each
// node's engine in lookahead windows itself, is one, and every experiment
// run — a single node included — goes through it.
func (k *Kernel) Settle() { k.settleBusyStretches() }

// Shutdown releases the goroutines of every process that has not exited
// (daemons and abandoned tasks). The kernel must not be used afterwards.
// Call it when a simulation run is complete; it is what keeps long test
// and benchmark sessions from accumulating parked goroutines.
func (k *Kernel) Shutdown() {
	k.settleBusyStretches()
	for _, t := range k.tasks {
		if !t.Exited() && t.proc != nil {
			t.proc.Kill()
			t.state = StateExited
		}
	}
}

// ---------------------------------------------------------------------------
// State transitions
// ---------------------------------------------------------------------------

// activate makes a task runnable: select a CPU, enqueue, check preemption.
func (k *Kernel) activate(t *Task, wakeup bool) {
	if t.state == StateRunnable || t.state == StateRunning {
		panic(fmt.Sprintf("sched: activate of runnable task %v", t))
	}
	if t.state == StateExited {
		panic(fmt.Sprintf("sched: activate of exited task %v", t))
	}
	k.account(t)
	if wakeup {
		t.class.TaskWake(k, t)
		t.wakeAt = k.Now()
		t.wakeValid = true
	}
	cpu := t.class.SelectCPU(k, t, wakeup)
	if !t.MayRunOn(cpu) {
		panic(fmt.Sprintf("sched: class %s placed %v on forbidden CPU %d", t.class.Name(), t, cpu))
	}
	if t.CPU >= 0 && t.CPU != cpu {
		t.Migrations++
		k.MigWake++
	}
	t.CPU = cpu
	t.state = StateRunnable
	t.queuedAt = k.Now()
	rq := k.rqs[cpu]
	// A busy-parked tick's horizon assumed this CPU's class queues frozen;
	// replay and wake it before the enqueue mutates them (the CFS enqueue
	// also reads the settled min_vruntime for its placement).
	k.wakeBusyParked(rq)
	crq := rq.classRQ[t.classIdx]
	crq.Enqueue(t, wakeup)
	k.noteEnqueued(rq, t)
	k.traceState(t, StateRunnable, cpu)
	k.checkPreempt(rq, t)
}

// checkPreempt decides whether the newly enqueued task should cause a
// reschedule of rq's current task.
func (k *Kernel) checkPreempt(rq *RunQueue, woken *Task) {
	cur := rq.current
	if cur == nil {
		k.Resched(rq.CPU)
		return
	}
	ci, wi := cur.classIdx, woken.classIdx
	switch {
	case wi < ci:
		// Higher class always preempts: this is the implicit class
		// prioritisation of the framework (and the reason SCHED_HPC tasks
		// see near-zero scheduler latency over SCHED_NORMAL daemons).
		k.Resched(rq.CPU)
	case wi == ci:
		if rq.classRQ[wi].CheckPreempt(cur, woken) {
			k.Resched(rq.CPU)
		}
	}
}

// deactivate blocks the current task of cpu (sleep). Only the running task
// can block: blocking is something a process does to itself.
func (k *Kernel) deactivate(t *Task) {
	if t.state != StateRunning {
		panic(fmt.Sprintf("sched: deactivate of non-running task %v", t))
	}
	k.wakeBusyParked(k.rqs[t.CPU]) // the running task is leaving
	k.account(t)
	k.unplanBurst(t)
	rq := k.rqs[t.CPU]
	rq.current = nil
	k.tickStateChanged()
	k.Chip.CPU(t.CPU).SetBusy(false)
	t.state = StateSleeping
	t.class.TaskSleep(k, t)
	k.traceState(t, StateSleeping, t.CPU)
	k.Resched(t.CPU)
}

// Wake makes a sleeping task runnable. Waking a task that is not sleeping
// panics: lost/duplicate wakeups are model bugs and must surface.
func (k *Kernel) Wake(t *Task) {
	if t.state != StateSleeping {
		panic(fmt.Sprintf("sched: Wake of non-sleeping task %v", t))
	}
	k.activate(t, true)
}

// exit finishes the current task of a CPU.
func (k *Kernel) exit(t *Task) {
	k.wakeBusyParked(k.rqs[t.CPU]) // the running task is leaving
	k.account(t)
	k.unplanBurst(t)
	rq := k.rqs[t.CPU]
	rq.current = nil
	k.tickStateChanged()
	k.Chip.CPU(t.CPU).SetBusy(false)
	t.state = StateExited
	t.ExitedAt = k.Now()
	k.traceState(t, StateExited, t.CPU)
	if t.watched {
		t.watched = false
		k.watchLeft--
		if k.watchLeft == 0 {
			k.Engine.Stop()
		}
	}
	k.Resched(t.CPU)
}

// noteEnqueued/noteDequeued maintain the cached queued-task counters.
// They must bracket every class-queue membership change; all such changes
// happen in this file, right next to a call to one of them. The enqueue
// records whether t is pinned, and the dequeue counts by that record.
func (k *Kernel) noteEnqueued(rq *RunQueue, t *Task) {
	k.nrQueued++
	k.nrQueuedClass[t.classIdx]++
	k.queueGen++
	rq.nrQueued++
	t.pinned = t.Affinity != 0 && t.Affinity&(t.Affinity-1) == 0
	if !t.pinned {
		k.nrMigratable++
	}
	k.queueChanged(rq, t)
}

func (k *Kernel) noteDequeued(rq *RunQueue, t *Task) {
	k.nrQueued--
	k.nrQueuedClass[t.classIdx]--
	k.queueGen++
	rq.nrQueued--
	if !t.pinned {
		k.nrMigratable--
	}
	k.queueChanged(rq, t)
}

// queueChanged wakes the idle-parked ticks that t's enqueue on, or dequeue
// from, rq may have made observable. A migratable task, or any task while
// a migratable one is queued, can change what a steal scan finds, so every
// idle park wakes (tickStateChanged). A pinned task while none is
// migratable cannot: no pull can succeed before or after. Its queue is
// then read only by its own CPU and by the sibling's activeBalance gate
// (sib.nrQueued), so only the idle parks of rq's core wake.
func (k *Kernel) queueChanged(rq *RunQueue, t *Task) {
	if !t.pinned || k.nrMigratable != 0 {
		k.tickStateChanged()
		return
	}
	if k.parkedTicks == 0 {
		return
	}
	base := rq.CPU &^ 1
	for _, r := range k.rqs[base : base+2] {
		if r.tickParked && !r.tickBusy {
			k.wakeTick(r)
		}
	}
}

// BalanceCacheHot reports whether t is too cache-hot for the load balancer
// to migrate, recording the earliest instant it will cool so a failed
// idle-balance pass knows when a rescan can first change its outcome.
// Steal implementations must use it — rather than Task.CacheHot directly —
// when rejecting a candidate for hotness, or the negative-result cache
// would skip a scan that could now succeed.
func (k *Kernel) BalanceCacheHot(t *Task) bool {
	cold := t.queuedAt + k.Opts.MigrationCost
	if k.Now() >= cold {
		return false
	}
	if cold < k.stealColdAt {
		k.stealColdAt = cold
	}
	return true
}

// account settles the task's time counters up to now.
func (k *Kernel) account(t *Task) {
	now := k.Now()
	d := now - t.lastUpdate
	if d < 0 {
		panic("sched: accounting time went backwards")
	}
	switch t.state {
	case StateRunning:
		t.SumExec += d
	case StateRunnable:
		t.SumWait += d
	case StateSleeping:
		t.SumSleep += d
	}
	t.lastUpdate = now
}

// ---------------------------------------------------------------------------
// The scheduler proper
// ---------------------------------------------------------------------------

// Resched requests a scheduling pass on cpu. The pass runs as a separate
// engine event at the current instant, never reentrantly.
func (k *Kernel) Resched(cpu int) {
	rq := k.rqs[cpu]
	rq.needResched = true
	if rq.reschedPending {
		return
	}
	rq.reschedPending = true
	k.Engine.Schedule(k.Now(), rq.reschedFn)
}

// schedule is __schedule(): put back the preempted task, pick the next one
// across classes in priority order, dispatch it.
func (k *Kernel) schedule(cpu int) {
	rq := k.rqs[cpu]
	if rq.offline {
		// A scheduling pass armed before the CPU was offlined: the queues
		// were drained by OfflineCore and the CPU must not pull new work.
		return
	}
	// The pass accounts the current task and mutates this CPU's class
	// queues: settle and wake a busy-parked tick first.
	k.wakeBusyParked(rq)
	prev := rq.current
	if prev != nil {
		k.account(prev)
		k.unplanBurst(prev)
		// Still runnable: back into its class queue. It was running a
		// moment ago, so it is cache-hot for the balancer.
		prev.state = StateRunnable
		prev.queuedAt = k.Now()
		rq.current = nil
		rq.classRQ[prev.classIdx].Enqueue(prev, false)
		k.noteEnqueued(rq, prev)
	}

	var next *Task
	if rq.nrQueued > 0 { // exact counter: all PickNexts are nil when 0
		for _, crq := range rq.classRQ {
			if t := crq.PickNext(); t != nil {
				next = t
				k.noteDequeued(rq, t)
				break
			}
		}
	}
	if next == nil {
		next = k.idleBalance(rq)
	}
	if next == nil {
		// CPU goes idle.
		k.Chip.CPU(cpu).SetBusy(false)
		if rq.idleSince == sim.MaxTime {
			rq.idleSince = k.Now()
		}
		if prev != nil {
			k.traceState(prev, StateRunnable, cpu)
		}
		return
	}
	rq.idleSince = sim.MaxTime

	if next != prev {
		rq.ContextSwitches++
		rq.switchPenalty = k.Opts.ContextSwitchCost
		if prev != nil {
			k.traceState(prev, StateRunnable, cpu)
		}
	}
	k.dispatch(rq, next)
}

// dispatch puts t on rq's CPU and starts executing its work.
func (k *Kernel) dispatch(rq *RunQueue, t *Task) {
	k.account(t) // close the Runnable window before switching state
	t.state = StateRunning
	t.CPU = rq.CPU
	rq.current = t
	rq.lastRan = t
	k.tickStateChanged()

	if t.wakeValid {
		lat := k.Now() - t.wakeAt
		t.WakeupCount++
		t.WakeupLatSum += lat
		if lat > t.WakeupLatMax {
			t.WakeupLatMax = lat
		}
		t.wakeValid = false
	}

	k.ApplyHWPrio(t)
	k.traceState(t, StateRunning, rq.CPU)
	k.pump(rq.CPU)
}

// ApplyHWPrio programs the task's hardware priority into its context if the
// task is currently running. The kernel acts at supervisor privilege, as in
// the paper (levels 1..6 reachable).
func (k *Kernel) ApplyHWPrio(t *Task) {
	if t.state != StateRunning {
		return
	}
	ctx := k.Chip.CPU(t.CPU)
	if err := ctx.SetPriority(t.HWPrio, power5.PrivSupervisor); err != nil {
		panic(fmt.Sprintf("sched: cannot apply hw priority: %v", err))
	}
	if k.tracer != nil {
		k.tracer.TaskHWPrio(k.Now(), t, int(t.HWPrio))
	}
}

// pump drives the current task of cpu: execute its pending compute burst,
// drain the unconsumed steps of a batched exchange, or fetch and process
// its next requests until it either computes, blocks, sleeps or exits.
func (k *Kernel) pump(cpu int) {
	rq := k.rqs[cpu]
	for {
		t := rq.current
		if t == nil {
			return
		}
		if t.remaining > 0 {
			k.planBurst(rq, t)
			return
		}
		if t.stepNext < len(t.steps) {
			// Consume the next step of a batched exchange inline: no proc
			// round-trip. The per-step semantics are identical to the
			// equivalent individual requests, so the virtual timeline is
			// bit-for-bit the unbatched one.
			s := &t.steps[t.stepNext]
			if (s.kind == stepSleep || s.kind == stepBlock) && rq.needResched {
				// The unbatched sequence resumed the body and let the
				// scheduler decide before the Sleep/Block request arrived;
				// mirror it by leaving the step unconsumed until the task
				// next holds the CPU.
				k.Resched(cpu)
				return
			}
			t.stepNext++
			if t.stepNext == len(t.steps) {
				// Last step: drop the reference to the Env's buffer (the
				// body reuses it after Flush returns) and mark the body —
				// still parked in Invoke — resumable, unless a fused wait
				// owns the resume decision.
				t.steps = nil
				t.stepNext = 0
				if t.waitCheck == nil {
					t.needsResume = true
				}
			}
			switch s.kind {
			case stepCompute:
				t.remaining += float64(s.d)
			case stepAfter:
				k.Engine.After(s.d, s.fn)
			case stepSleep:
				// May appear mid-batch (a daemon queueing several duty
				// cycles ahead): the remaining steps resume after the wake,
				// exactly as if the body had issued them then.
				k.deactivate(t)
				k.Engine.After(s.d, t.wakeFn)
				return
			case stepBlock:
				k.deactivate(t)
				return
			}
			if rq.needResched {
				if t.remaining > 0 {
					k.planBurst(rq, t)
				} else if rq.current == t {
					// Remaining steps (or the check/Resume) run once the
					// scheduler hands the CPU back.
					k.Resched(cpu)
				}
				return
			}
			continue
		}
		if t.waitCheck != nil {
			// Fused wait: evaluate the check on the engine side, at the
			// exact virtual instant the flushed-and-inspect sequence would
			// have run body-side. The check may defer burn work (receive
			// overheads) through the Env; adopt and drain it, then
			// re-evaluate.
			env := t.waitEnv
			env.enginePush = true
			done, reply := t.waitCheck()
			env.enginePush = false
			if !done && len(env.batch) > 0 {
				t.steps = env.batch
				t.stepNext = 0
				env.batch = env.batch[:0]
				continue
			}
			if !done {
				t.needsResume = false
				k.deactivate(t)
				return
			}
			// Wait over: resume the body with the check's reply. Work the
			// check left deferred stays in the Env batch for the body's
			// next exchange.
			t.waitCheck = nil
			t.waitEnv = nil
			t.resumeVal = reply
			t.needsResume = true
			continue
		}
		var req proc.Request
		var done bool
		switch {
		case t.pendingReq != nil:
			req, t.pendingReq = t.pendingReq, nil
		case t.needsResume:
			t.needsResume = false
			reply := t.resumeVal
			t.resumeVal = nil
			req, done = t.proc.Resume(reply)
		default:
			panic(fmt.Sprintf("sched: task %v has neither work nor pending request", t))
		}
		if done {
			k.exit(t)
			return
		}
		if !k.handleRequest(rq, t, req) {
			return
		}
		if rq.needResched {
			// A same-instant wakeup (e.g. a barrier release performed by
			// this task) wants the CPU back; let the scheduler decide
			// before burning more requests.
			if t.remaining > 0 {
				k.planBurst(rq, t)
			} else if rq.current == t {
				// Task has no work planned; it must issue its next request
				// once rescheduled. Mark it resumable — unless a fused wait
				// or unconsumed steps already carry the continuation.
				if t.waitCheck == nil && t.stepNext >= len(t.steps) {
					t.needsResume = true
				}
				k.Resched(cpu)
				return
			}
			return
		}
	}
}

// handleRequest applies one request of the running task t. It returns true
// when the pump loop should continue (the task still holds the CPU and may
// issue further requests at this instant).
func (k *Kernel) handleRequest(rq *RunQueue, t *Task, req proc.Request) bool {
	switch r := req.(type) {
	case *computeReq:
		if r.d < 0 {
			panic("sched: negative compute duration")
		}
		t.remaining += float64(r.d)
		t.needsResume = true
		return true
	case *batchReq:
		// A batched exchange: stash the steps; the pump drains them without
		// further rendezvous. The body stays parked until the last step
		// completes (needsResume is set on exhaustion, not here).
		if t.stepNext < len(t.steps) {
			panic(fmt.Sprintf("sched: task %v flushed a batch over unconsumed steps", t))
		}
		t.steps = r.steps
		t.stepNext = 0
		return true
	case *waitReq:
		// A fused wait: stash the steps and the check; the pump drains the
		// former, then evaluates the latter — blocking and re-checking
		// across wakeups — and resumes the body with the check's reply.
		if t.stepNext < len(t.steps) || t.waitCheck != nil {
			panic(fmt.Sprintf("sched: task %v flushed a wait over unconsumed work", t))
		}
		t.steps = r.steps
		t.stepNext = 0
		t.waitCheck = r.check
		t.waitEnv = r.env
		// The kernel owns the batch buffer from here: reset it so the
		// check's deferred work starts a fresh batch (the drained steps
		// are read through t.steps, whose length was captured above).
		r.env.batch = r.env.batch[:0]
		return true
	case *yieldReq:
		t.needsResume = true
		k.Resched(rq.CPU)
		return false
	case *setSchedReq:
		k.setSchedulerRunning(t, r.policy, r.rtPrio)
		t.needsResume = true
		return true
	case *setNiceReq:
		// The weight feeds the running task's per-tick vruntime delta:
		// settle a busy-parked stretch under the old weight first.
		k.wakeBusyParked(rq)
		t.Nice = r.nice
		t.cfs.init(t)
		t.needsResume = true
		return true
	case *setHWPrioReq:
		t.HWPrio = r.prio
		k.ApplyHWPrio(t)
		t.needsResume = true
		return true
	default:
		panic(fmt.Sprintf("sched: unknown request %T", req))
	}
}

// WakeAfter schedules a Wake of t after delay d, reusing the task's
// pre-bound wake callback (a pooled event, no closure allocation). Higher
// layers (the MPI barrier release, timer-driven waits) use it on the hot
// path.
func (k *Kernel) WakeAfter(t *Task, d sim.Time) {
	k.Engine.After(d, t.wakeFn)
}

// setSchedulerRunning switches the class of the *running* task t.
func (k *Kernel) setSchedulerRunning(t *Task, p Policy, rtPrio int) {
	// The policy feeds the running task's tick behaviour (RR quanta) and a
	// class change re-targets which class queue ticks: both invalidate a
	// busy-parked horizon, so settle the stretch under the old policy.
	k.wakeBusyParked(k.rqs[t.CPU])
	t.policy = p
	t.RTPrio = rtPrio
	newClass := k.ClassFor(p)
	if newClass != t.class {
		k.setClass(t, newClass)
		// Re-evaluate: a lower class current may now be preemptable.
		k.Resched(t.CPU)
	}
}

// SetScheduler changes the policy of a task from outside (the
// sched_setscheduler syscall issued by a shell, as the paper's users do).
// The task may be in any state.
func (k *Kernel) SetScheduler(t *Task, p Policy, rtPrio int) {
	switch t.state {
	case StateRunning:
		k.setSchedulerRunning(t, p, rtPrio)
	case StateRunnable:
		k.account(t) // settle the Runnable window under the old class
		rq := k.rqs[t.CPU]
		// The dequeue mutates rq's class queue, which a busy-parked
		// horizon assumed frozen.
		k.wakeBusyParked(rq)
		rq.classRQ[t.classIdx].Dequeue(t)
		k.noteDequeued(rq, t)
		t.policy = p
		t.RTPrio = rtPrio
		k.setClass(t, k.ClassFor(p))
		t.state = StateSleeping // transient, for activate's sanity check
		k.activate(t, false)
	default:
		t.policy = p
		t.RTPrio = rtPrio
		k.setClass(t, k.ClassFor(p))
	}
}

// ---------------------------------------------------------------------------
// Burst execution on the chip
// ---------------------------------------------------------------------------

// planBurst schedules the completion of t's remaining work at the context's
// current speed. The speed comes from the context's precomputed
// both-occupancy pair, so planning (and the plan swaps below) never pays a
// PerfModel query in steady state.
func (k *Kernel) planBurst(rq *RunQueue, t *Task) {
	if t.finishEv != nil {
		panic("sched: planBurst with a plan already in place")
	}
	ctx := k.Chip.CPU(rq.CPU)
	ctx.SetBusy(true) // may fire the speed hook for the sibling
	whenBusy, whenIdle := ctx.SpeedPair()
	speed := whenIdle
	if ctx.Sibling().Busy() {
		speed = whenBusy
	}
	if speed <= 0 {
		panic(fmt.Sprintf("sched: context %d has zero speed for running task", rq.CPU))
	}
	t.planAt = k.Now()
	t.planSpeed = speed
	delay := sim.Time(t.remaining/speed) + 1 // +1ns: never round to "done" early
	delay += rq.switchPenalty
	rq.switchPenalty = 0
	t.finishEv = k.Engine.After(delay, t.burstFn)
}

// unplanBurst settles the work done so far and cancels the completion
// event.
func (k *Kernel) unplanBurst(t *Task) {
	if t.finishEv == nil {
		return
	}
	k.Engine.Cancel(t.finishEv)
	t.finishEv = nil
	elapsed := k.Now() - t.planAt
	done := float64(elapsed) * t.planSpeed
	if done > t.remaining {
		done = t.remaining
	}
	t.SumWork += done
	t.remaining -= done
}

// burstDone fires when the running task finishes its compute burst.
func (k *Kernel) burstDone(t *Task) {
	if t.state != StateRunning {
		panic(fmt.Sprintf("sched: burst completion for non-running %v", t))
	}
	t.finishEv = nil
	t.SumWork += t.remaining // the whole planned remainder was consumed
	t.remaining = 0
	rq := k.rqs[t.CPU]
	// The burst ends mid-grid: replay the elided instants of a busy-parked
	// stretch before accounting, so the replayed ticks see grid-aligned
	// marks. The stretch itself may continue — the next burst keeps the
	// CPU busy at this same instant — so the tick stays parked.
	k.settleBusyTicks(rq)
	k.account(t)
	k.Chip.CPU(t.CPU).SetBusy(false) // between bursts the context is not decoding
	k.pump(rq.CPU)
}

// coreSpeedChanged is the chip hook: swap the in-flight burst plans of the
// contexts whose speed inputs changed (mask bit i = context i). A busy
// toggle masks only the sibling; a priority change masks both.
//
// The swap is in place: settle the work done at the old speed, pick the
// new speed from the context's precomputed both-occupancy pair, and re-arm
// the existing completion event (Reschedule) — no Cancel/After pool churn,
// and for the dominant case (a sibling burst starting or ending) no
// PerfModel query either. The completion instant is bit-identical to the
// cancel-and-replan it replaces: the same settle arithmetic, the same
// delay formula, and a Reschedule orders among same-instant events exactly
// as a freshly scheduled event would (fresh sequence number either way).
func (k *Kernel) coreSpeedChanged(co *power5.Core, mask int) {
	now := k.Now()
	for i := 0; i < 2; i++ {
		if mask&(1<<i) == 0 {
			continue
		}
		ctx := co.Context(i)
		rq := k.rqs[ctx.ID()]
		t := rq.current
		if t == nil || t.finishEv == nil {
			continue
		}
		whenBusy, whenIdle := ctx.SpeedPair()
		newSpeed := whenIdle
		if ctx.Sibling().Busy() {
			newSpeed = whenBusy
		}
		if newSpeed == t.planSpeed {
			continue
		}
		if newSpeed <= 0 {
			panic(fmt.Sprintf("sched: context %d has zero speed for running task", rq.CPU))
		}
		elapsed := now - t.planAt
		done := float64(elapsed) * t.planSpeed
		if done > t.remaining {
			done = t.remaining
		}
		t.SumWork += done
		t.remaining -= done
		t.planAt = now
		t.planSpeed = newSpeed
		if t.remaining > 0 {
			delay := sim.Time(t.remaining/newSpeed) + 1
			delay += rq.switchPenalty
			rq.switchPenalty = 0
			k.Engine.Reschedule(t.finishEv, now+delay)
		} else {
			// The change lands exactly at completion; finish now.
			k.Engine.Reschedule(t.finishEv, now)
		}
	}
}

// ---------------------------------------------------------------------------
// Ticks and balancing
// ---------------------------------------------------------------------------

// startTicker arms the periodic scheduler tick for cpu. Ticks are staggered
// across CPUs as on real SMP kernels. Each CPU owns exactly one ticker
// event and one callback for the kernel's lifetime: the callback re-arms
// the event via Reschedule, so the periodic tick never allocates. On
// provably unobservable stretches the re-arm instead parks the event past
// its grid (tickless idle and busy — see maybeParkTick), and a wake-up
// hands it back to the cadence (wakeTick, reviewTick).
func (k *Kernel) startTicker(cpu int) {
	period := k.Opts.TickPeriod
	offset := period * sim.Time(cpu) / sim.Time(k.Chip.NumCPUs())
	rq := k.rqs[cpu]
	rq.gridBase = k.Engine.Now() + offset
	rq.loadAnchor = rq.gridBase - period
	rq.loadTicked = rq.gridBase - period
	rq.lastTickAt = rq.gridBase - period
	tick := func() { k.tick(cpu) }
	rq.tickEv = k.Engine.Schedule(rq.gridBase, tick)
}

// gridCeil returns the smallest tick-grid instant of rq at or after t.
func (rq *RunQueue) gridCeil(t sim.Time) sim.Time {
	if t <= rq.gridBase {
		return rq.gridBase
	}
	p := rq.kernel.Opts.TickPeriod
	d := t - rq.gridBase
	return rq.gridBase + (d+p-1)/p*p
}

// gridFloor returns the largest tick-grid instant of rq at or before t.
func (rq *RunQueue) gridFloor(t sim.Time) sim.Time {
	if g := rq.gridCeil(t); g > t {
		return g - rq.kernel.Opts.TickPeriod
	}
	return t
}

// loadAlpha is the per-tick decay constant of the occupancy average
// (tick/100 ms horizon), and loadSnap the convergence snap: once the
// average is within 1e-9 of its sample the value is pinned to it. The only
// threshold consumer (activeBalance, 0.35/0.75) cannot see the snap.
const (
	loadAlpha = 0.01
	loadSnap  = 1e-9
)

// loadPow[k] is (1−loadAlpha)^k, built once by repeated multiplication up
// to the first power below loadSnap: from there on every |x0−s| ≤ 1 has
// snapped, so loadEval needs no larger k.
var loadPow = func() []float64 {
	pow := []float64{1}
	for pow[len(pow)-1] >= loadSnap {
		pow = append(pow, pow[len(pow)-1]*(1-loadAlpha))
	}
	return pow
}()

// loadEval is the occupancy average k grid instants after an anchor of
// value x0 under the constant sample s: s + (x0−s)·(1−loadAlpha)^k, pinned
// to s once within loadSnap of it. k = 0 is the anchor itself, exactly.
// The product is rounded before the add (the explicit conversion forbids
// a fused multiply-add), so every platform evaluates the same bits.
func loadEval(x0, s float64, k int64) float64 {
	if k == 0 {
		return x0
	}
	if k >= int64(len(loadPow)) {
		return s
	}
	d := float64((x0 - s) * loadPow[k])
	if d < loadSnap && d > -loadSnap {
		return s
	}
	return s + d
}

// loadAvg returns rq's occupancy average at grid instant loadTicked.
func (rq *RunQueue) loadAvg() float64 {
	return loadEval(rq.loadX0, rq.loadS,
		int64((rq.loadTicked-rq.loadAnchor)/rq.kernel.Opts.TickPeriod))
}

// applyLoad applies the occupancy sample s at every tick-grid instant of
// rq in (loadTicked, through], through being on the grid. The fired tick
// and every settle of a tickless stretch share it: a run of the anchor's
// own sample only advances loadTicked, and a new sample re-anchors at the
// value of loadTicked. Both paths therefore anchor at the same instants
// and read the same bits.
func (rq *RunQueue) applyLoad(s float64, through sim.Time) {
	if through <= rq.loadTicked {
		return
	}
	if s != rq.loadS {
		rq.loadX0, rq.loadS, rq.loadAnchor = rq.loadAvg(), s, rq.loadTicked
	}
	rq.loadTicked = through
}

// settleIdleLoad applies the idle sample to every tick-grid instant of rq
// in (loadTicked, through]. It is the exactness half of tickless idle: a
// parked CPU's load is not sampled by tick events, so every reader — and
// the resuming tick itself — first settles the skipped instants. Only
// whole idle stretches are ever settled (the CPU cannot have run while its
// tick was parked), so the sample is always 0.
func (k *Kernel) settleIdleLoad(rq *RunQueue, through sim.Time) {
	rq.applyLoad(0, rq.gridFloor(through))
}

// accountAt advances the wall-time accounting of the running task t to the
// elided grid instant at. It is account specialised to the only state a
// busy parked stretch can contain (Running) and to an explicit — possibly
// past — instant. Every settle point of a stretch replays the stretch
// before accounting t at the present, so t.lastUpdate can never be ahead
// of an instant being replayed.
func (k *Kernel) accountAt(t *Task, at sim.Time) {
	d := at - t.lastUpdate
	if d < 0 {
		panic("sched: busy-tick replay behind the task's accounting")
	}
	t.SumExec += d
	t.lastUpdate = at
}

// settleStretch settles the elided tick instants of a parked stretch of rq
// in (lastTickAt, through] — flooring through to the tick grid — and
// advances lastTickAt and the machine-wide elided count, in O(1) whatever
// the stretch's length. Idle stretches settle only the load at sample 0:
// nothing else happens on an idle CPU's tick, by the park proof. Busy
// stretches settle the full tick body: the load at sample 1, the running
// task's wall-time accounting and the class bookkeeping. The first instant
// runs the real class Tick, whose vruntime delta may span a partial period
// left by mid-grid accounting; every later instant spans exactly one
// period, so TickHorizon.ElideTicks applies them together, bit for bit as
// the fired ticks would have. The park horizon guarantees that none of
// them requests a reschedule.
func (k *Kernel) settleStretch(rq *RunQueue, through sim.Time) {
	p := k.Opts.TickPeriod
	through = rq.gridFloor(through)
	if rq.lastTickAt >= through {
		return
	}
	n := (through - rq.lastTickAt) / p
	if rq.tickBusy {
		rq.applyLoad(1, through)
		t := rq.current
		crq := rq.classRQ[t.classIdx]
		k.accountAt(t, rq.lastTickAt+p)
		crq.Tick(t)
		if n > 1 {
			k.accountAt(t, through)
			crq.(TickHorizon).ElideTicks(t, int(n-1))
		}
	} else {
		rq.applyLoad(0, through)
	}
	k.stats.TicksElided += int64(n)
	rq.lastTickAt = through
}

// settleBusyLoad settles only the load of a busy-parked stretch, up to the
// last grid instant at or before through — for readers of a busy CPU's
// load (activeBalance donor thresholds) that must not otherwise disturb
// the stretch. The full settle (settleStretch) tolerates a load already
// applied ahead of the accounting: applyLoad skips instants at or before
// loadTicked. The CPU ran throughout the stretch, so the sample is 1.
func (k *Kernel) settleBusyLoad(rq *RunQueue, through sim.Time) {
	if rq.tickParked && rq.tickBusy {
		rq.applyLoad(1, rq.gridFloor(through))
	}
}

// settleBusyTicks replays the elided instants of a busy-parked stretch of
// rq up to — but excluding — the present instant, without waking the tick.
// Used where the stretch continues but the running task's accounting is
// about to be settled mid-grid (burst completion) or read (end of run).
// The present instant is excluded because, when it lies on the grid, its
// tick may still fire as a real event this instant (the park horizon); if
// it does not, a later settle or wake replays it — the replay commutes
// with mid-grid accounting, since each Tick's vruntime delta spans the
// same SumExec interval either way.
func (k *Kernel) settleBusyTicks(rq *RunQueue) {
	if rq.tickParked && rq.tickBusy {
		k.settleStretch(rq, k.Now()-1)
	}
}

// settleBusyStretches settles every still-open busy-parked stretch, so
// end-of-run readers (reports, fingerprints) find the same accounting an
// always-ticking run would have left. Called when the simulation stops;
// the ticks stay parked — no further events fire.
func (k *Kernel) settleBusyStretches() {
	for _, rq := range k.rqs {
		k.settleBusyTicks(rq)
	}
}

// wakeBusyParked wakes rq's tick if it is parked over a busy stretch: a
// local transition — queue membership, the running task leaving, a weight
// or class change of the running task — is about to invalidate the park
// horizon. The stretch is settled (replayed) through the present before
// the caller mutates anything, so the replay runs under the exact frozen
// state the horizon assumed.
func (k *Kernel) wakeBusyParked(rq *RunQueue) {
	if rq.tickParked && rq.tickBusy {
		k.wakeTick(rq)
	}
}

// tick performs the per-CPU periodic work: settle accounting, let the
// current class act (timeslices, fairness), honour preemption requests,
// and rebalance idle CPUs (rebalance_tick). Ticks only ever fire on the
// CPU's grid; after a parked (tickless) stretch the first firing replays
// the skipped instants before applying its own. It ends by re-arming its
// own event with Reschedule: one period out, or parked further ahead.
func (k *Kernel) tick(cpu int) {
	rq := k.rqs[cpu]
	now := k.Now()
	period := k.Opts.TickPeriod
	if now != rq.lastTickAt+period { // on-cadence fast path: nothing elided
		// First firing after a parked stretch: settle the elided instants
		// up to the previous grid instant (idle stretches: the load;
		// busy stretches: the full tick body, in closed form).
		k.settleStretch(rq, now-period)
	}
	rq.lastTickAt = now
	// Decayed occupancy average (cpu_load): the balancer reads this, not
	// the instantaneous state, so brief waits do not look like idleness.
	sample := 0.0
	if rq.current != nil {
		sample = 1
	}
	rq.applyLoad(sample, now)
	if t := rq.current; t != nil {
		k.account(t)
		rq.classRQ[t.classIdx].Tick(t)
	} else if rq.NrQueued() == 0 {
		// Idle CPU: periodically retry the balance pull, including the
		// SMT-domain active migration (a fully idle core pulls a running
		// task from a core running two). When nothing is queued anywhere
		// and the CPU has not yet been idle long enough for the active
		// balance to even consider firing (its first gate), the whole
		// pass is provably a no-op — skip it.
		if k.nrQueued != 0 || rq.idleSince == sim.MaxTime ||
			now-rq.idleSince >= 4*period {
			k.schedule(cpu)
		}
		// Still idle after the balance attempt: enter SMT snooze once the
		// configured delay has passed, handing decode slots to the
		// sibling (smt_snooze_delay).
		if d := k.Opts.SMTSnoozeDelay; d > 0 && rq.current == nil &&
			now-rq.idleSince >= d {
			ctx := k.Chip.CPU(cpu)
			if ctx.Priority() != power5.PrioVeryLow {
				if err := ctx.SetPriority(power5.PrioVeryLow, power5.PrivSupervisor); err != nil {
					panic(fmt.Sprintf("sched: snooze failed: %v", err))
				}
			}
		}
	}
	if rq.needResched && !rq.reschedPending {
		k.Resched(cpu)
	}
	// Re-arm: on the cadence normally, or past it when every tick until a
	// computable horizon is provably a no-op (tickless idle, and its busy
	// NO_HZ_FULL counterpart).
	if at, ok := k.maybeParkTick(rq, now); ok {
		if !rq.tickParked {
			rq.tickParked = true
			k.parkedTicks++
		}
		k.Engine.Reschedule(rq.tickEv, at)
		return
	}
	if at, ok := k.maybeParkBusyTick(rq, now); ok {
		if !rq.tickParked {
			rq.tickParked = true
			rq.tickBusy = true
		}
		k.Engine.Reschedule(rq.tickEv, at)
		return
	}
	if rq.tickParked {
		rq.tickParked = false
		if rq.tickBusy {
			rq.tickBusy = false
		} else {
			k.parkedTicks--
		}
	}
	k.Engine.Reschedule(rq.tickEv, now+period)
}

// ticklessParkCap bounds a parked stretch, in ticks. A capped wake-up is
// harmless — any tick before the park horizon is provably a no-op, so the
// resumed tick simply re-parks — and the bound keeps the horizon
// arithmetic trivially overflow-free while costing one no-op tick per
// ~second of fully idle virtual time.
const ticklessParkCap = 1024

// maybeParkTick decides, at the end of the tick that fired at now, whether
// every subsequent tick of rq is provably unobservable until some future
// instant, and if so returns the instant to park the tick event at. The
// review of a tick woken off its grid (reviewTick) asks it the same for
// the next grid instant, before that tick fires: the horizon is absolute,
// and a park is granted only past now+period, which puts the horizon past
// now+period too, so the tick at now is proven a no-op as well.
//
// A parked CPU's ticks would do exactly four things; each is either shown
// impossible until the horizon or reproduced exactly:
//
//   - the load sample (0): settled lazily in closed form, one applyLoad
//     per stretch (settleIdleLoad, settleStretch), before any read and
//     before the tick resumes;
//   - the idle-balance pull: with migratable tasks queued, provably
//     futile while the negative-result cache holds (no queue mutation —
//     any mutation wakes the tick — and no hot-rejected candidate cooled:
//     the horizon includes lbRetryAt); with only pinned tasks queued, or
//     none, idleBalance runs no scan at all;
//   - the SMT-domain active balance: its gates open no earlier than
//     activeBalanceEligibleAt — a lower bound built from the frozen
//     idle-since marks, the deterministic loadAvg trajectories of this
//     CPU, its sibling and every potential donor core, and donor
//     existence (any current/queue transition wakes the tick);
//   - the snooze entry: a pure function of idleSince, included below.
//
// The event is armed one grid instant before the first possibly-acting
// tick: that firing is still provably a no-op, and its ordinary in-cadence
// re-arm then gives the acting tick the same scheduling instant — and so
// the same position among same-instant events — it would have had had the
// tick never parked.
func (k *Kernel) maybeParkTick(rq *RunQueue, now sim.Time) (sim.Time, bool) {
	if k.Opts.NoTicklessIdle {
		return 0, false
	}
	if rq.current != nil || rq.nrQueued > 0 || rq.needResched || rq.reschedPending {
		return 0, false
	}
	if rq.idleSince == sim.MaxTime {
		return 0, false
	}
	h := sim.MaxTime
	if k.nrMigratable != 0 {
		// Every tick runs the idle-balance pull: only the valid
		// negative-result cache makes it futile, and only until a
		// hot-rejected candidate cools. Pinned tasks alone never make it
		// act: idleBalance skips the scan for them.
		if !rq.lbFailed || rq.lbFailGen != k.queueGen {
			return 0, false
		}
		h = rq.lbRetryAt
	}
	if ab := k.activeBalanceEligibleAt(rq, now); ab < h {
		h = ab
	}
	if d := k.Opts.SMTSnoozeDelay; d > 0 &&
		k.Chip.CPU(rq.CPU).Priority() != power5.PrioVeryLow {
		if s := rq.idleSince + d; s < h {
			h = s
		}
	}
	period := k.Opts.TickPeriod
	cap := now + ticklessParkCap*period
	var arm sim.Time
	if h >= cap {
		arm = cap // capped: the wake-up re-checks and re-parks
	} else {
		// One grid instant before the first tick that could act.
		arm = rq.gridCeil(h) - period
	}
	if arm <= now+period {
		return 0, false // nothing to skip
	}
	return arm, true
}

// maybeParkBusyTick is the busy-CPU (NO_HZ_FULL) counterpart of
// maybeParkTick: decide, at the end of the tick that fired at now with a
// running task, whether every subsequent tick is provably a no-op for some
// computable number of grid instants, and if so return the instant to park
// the tick event at.
//
// A busy CPU's tick does exactly four things; while the CPU keeps running
// the same task with an unchanged class queue, each is either reproduced
// exactly at the next observation point or shown impossible:
//
//   - the load sample (1): settled lazily in closed form, one applyLoad
//     per stretch (settleStretch, settleBusyLoad), before any read and
//     before the tick resumes;
//   - the running task's accounting: integer wall-time accounting,
//     advanced to the stretch's first instant and then to its last
//     (accountAt);
//   - the class Tick (slice expiry, RR quanta, vruntime fairness): the
//     class itself bounds, via TickHorizon.TickNoops, how many future
//     ticks are provably free of Resched requests under frozen queue
//     state; the stretch's first instant runs the real Tick and the rest
//     of its bookkeeping (vruntime adds, quantum decrements) is applied
//     by one TickHorizon.ElideTicks;
//   - the needResched check: Resched pairs every needResched with a
//     pending scheduling pass (which wakes the park), so a parked stretch
//     cannot strand one.
//
// Unlike idle parks — whose balance horizons read machine-wide state and
// are woken by any transition (tickStateChanged) — a busy tick touches
// only local state, so only local transitions wake it: enqueue/dequeue on
// this CPU, the current task leaving (schedule, deactivate, exit,
// migration), and weight/policy/class changes of the running task. The
// park is armed one grid instant before the first possibly-acting tick,
// exactly as maybeParkTick: that firing is still provably a no-op, and its
// ordinary in-cadence re-arm gives the acting tick the arming instant —
// and so the position among same-instant events — it would have had had
// the tick never parked. The review of a woken tick (reviewTick) asks it
// between ticks, with now the last settled grid instant: TickNoops then
// counts from the next grid tick, over the accounting done since.
func (k *Kernel) maybeParkBusyTick(rq *RunQueue, now sim.Time) (sim.Time, bool) {
	if k.Opts.NoTicklessBusy {
		return 0, false
	}
	t := rq.current
	if t == nil || rq.needResched || rq.reschedPending {
		return 0, false
	}
	th, ok := rq.classRQ[t.classIdx].(TickHorizon)
	if !ok {
		return 0, false
	}
	n := th.TickNoops(t)
	if n > ticklessParkCap {
		n = ticklessParkCap // capped: the wake-up re-checks and re-parks
	}
	if n < 2 {
		return 0, false // nothing to skip
	}
	return now + sim.Time(n)*k.Opts.TickPeriod, true
}

// activeBalanceEligibleAt returns a lower bound on the first instant at
// which activeBalance(rq) could return non-nil, assuming no current/queue
// transition happens anywhere in between (every such transition wakes the
// parked tick and the bound is recomputed). The bound is exact with
// respect to the deterministic parts of the state: the frozen idle-since
// marks and the load trajectories, which between transitions follow a
// known closed form at known grid instants.
func (k *Kernel) activeBalanceEligibleAt(rq *RunQueue, now sim.Time) sim.Time {
	period := k.Opts.TickPeriod
	t := rq.idleSince + 4*period
	sib := k.rqs[rq.CPU^1]
	if sib.current != nil || sib.nrQueued > 0 || sib.idleSince == sim.MaxTime {
		return sim.MaxTime // core not fully idle; a transition wakes us
	}
	if s := sib.idleSince + 4*period; s > t {
		t = s
	}
	if c := rq.loadCrossAt(0, 0.35); c > t {
		t = c
	}
	if c := sib.loadCrossAt(0, 0.35); c > t {
		t = c
	}
	// A donor core must exist: both contexts busy, loadAvg ≥ 0.75 on both
	// (rising deterministically while they stay busy), with at least one
	// current task allowed on this CPU.
	donor := sim.MaxTime
	for base := 0; base < len(k.rqs); base += 2 {
		if base == rq.CPU&^1 {
			continue
		}
		a, b := k.rqs[base], k.rqs[base+1]
		if a.current == nil || b.current == nil {
			continue
		}
		if !a.current.MayRunOn(rq.CPU) && !b.current.MayRunOn(rq.CPU) {
			continue
		}
		pair := a.loadCrossAt(1, 0.75)
		if c := b.loadCrossAt(1, 0.75); c > pair {
			pair = c
		}
		if pair < donor {
			donor = pair
		}
	}
	if donor == sim.MaxTime {
		return sim.MaxTime
	}
	if donor > t {
		t = donor
	}
	return t
}

// loadCrossAt returns the first grid instant at or after loadTicked at
// which rq's load, sampling s from loadTicked on, has reached limit (≤
// limit for s = 0, ≥ limit for s = 1), or sim.MaxTime if it never does. It
// searches the evaluation the later settles will apply — the anchor
// continues when its sample is s, and re-anchors at loadTicked otherwise —
// by bisection: the trajectory moves monotonically toward s and is s from
// the end of loadPow on.
func (rq *RunQueue) loadCrossAt(s, limit float64) sim.Time {
	x0, base := rq.loadX0, int64((rq.loadTicked-rq.loadAnchor)/rq.kernel.Opts.TickPeriod)
	if s != rq.loadS {
		x0, base = rq.loadAvg(), 0
	}
	reached := func(j int) bool {
		v := loadEval(x0, s, base+int64(j))
		if s == 0 {
			return v <= limit
		}
		return v >= limit
	}
	if reached(0) {
		return rq.loadTicked // the common case: a load already settled at s
	}
	n := max(int64(len(loadPow))-base, 0) // from j = n on the load is s
	if !reached(int(n)) {
		return sim.MaxTime
	}
	j := sort.Search(int(n), reached)
	return rq.loadTicked + sim.Time(j)*rq.kernel.Opts.TickPeriod
}

// tickStateChanged wakes every idle-parked tick: some queue membership or
// running-task transition just happened, so the machine-wide balance
// horizons may no longer bound the first observable tick. Each woken tick
// re-decides its park with a fresh horizon when the instant ends
// (reviewTicks), or at once on a grid instant (wakeTick). Busy-parked
// ticks are exempt: their horizons depend only on their own CPU's
// class-queue state, which global transitions cannot touch — they are
// woken by the local mutation sites instead (wakeBusyParked). A pinned
// task's queue change wakes only its own core (queueChanged).
//
// It must be called before the mutation schedules any same-instant
// follow-up events (Resched), so a tick woken on its grid keeps its place
// before them — see wakeTick for why that reproduces the never-parked
// order.
func (k *Kernel) tickStateChanged() {
	if k.parkedTicks == 0 {
		return
	}
	for _, rq := range k.rqs {
		if rq.tickParked && !rq.tickBusy {
			k.wakeTick(rq)
		}
	}
}

// wakeTick unparks a parked tick: it settles the stretch up to the last
// grid instant before the present and hands the tick back to the cadence.
//
// Off the grid — the common case — the tick is not re-armed. It is marked
// for review (tickReview), and when the instant ends reviewTicks decides,
// from the state the instant left, what the tick at the next grid instant
// would decide: park again (keeping or moving the parked event) or run.
// Most woken ticks would only re-park, so the review saves their firing;
// any later change before that grid instant wakes the tick again.
//
// Exactly on a grid instant T the tick is re-armed at once, because its
// order among T's events matters: the never-parked tick at T would have
// carried a sequence number from its arming at T−period, so it ordered
// before exactly those same-instant events armed after T−period. If the event firing now was armed after
// that point, the virtual tick at T "already fired" — before this event —
// and, being pre-mutation, was a no-op: its decay is settled and the tick
// resumes at T+period. Otherwise the tick at T still belongs after the
// firing event, which re-arming now (before the mutation schedules its
// same-instant follow-ups) reproduces.
//
// Two corners of this reconstruction are resolved by convention rather
// than proof: an arming at exactly T−period is ambiguous between the
// branches (resolved as tick-first, matching the dominant source of
// period-exact arming — the tick chain itself), and an *already-pending*
// event at T armed within (T−period, now) other than the one firing will
// precede the re-armed tick although the never-parked tick preceded it.
// Both require an independently scheduled deadline to land exactly on the
// 1 ms tick grid — a single nanosecond on a grid populated by RNG-jittered
// burst/latency arithmetic — and are pinned empirically by the golden
// tables and the randomized tickless-equivalence tests.
func (k *Kernel) wakeTick(rq *RunQueue) {
	k.stats.TickWakes++
	now := k.Now()
	period := k.Opts.TickPeriod
	at := rq.gridCeil(now)
	onGrid := at == now
	if onGrid && (rq.lastTickAt == now ||
		k.Engine.FiringScheduledAt() >= now-period) {
		// The virtual tick at now "already fired" (or the real one did —
		// lastTickAt == now — and re-parked at this very instant): settle
		// through now and resume one period later.
		k.settleStretch(rq, now)
		at += period
	} else {
		k.settleStretch(rq, at-period)
	}
	rq.tickParked = false
	if rq.tickBusy {
		rq.tickBusy = false
	} else {
		k.parkedTicks--
	}
	if !onGrid {
		rq.tickReview = true
		k.Engine.RequestInstantEnd()
		return
	}
	k.Engine.Reschedule(rq.tickEv, at)
}

// reviewTicks is the engine's instant-end hook: every tick wakeTick
// unparked off its grid during the instant now re-decides its park, from
// the state the instant left. Offline CPUs have no tick left to review.
func (k *Kernel) reviewTicks() {
	for _, rq := range k.rqs {
		if rq.tickReview {
			rq.tickReview = false
			if !rq.offline {
				k.reviewTick(rq)
			}
		}
	}
}

// reviewTick decides for rq, whose tick was woken off the grid this
// instant, what its tick at the next grid instant g would decide, and
// applies it without firing that tick. The wake settled the stretch
// through g − period, so the tick at g would find exactly the present
// state — any change before g wakes the tick again. An idle CPU asks
// maybeParkTick at g: a park there proves the ticks from g up to the park
// instant no-ops. A busy CPU asks its class for the no-op ticks counted
// from g (TickNoops between ticks); with n ≥ 2 of them the park instant
// is g + (n−1)·period, and with one the tick is re-armed at g, the same
// instant. The still-parked event stays where it is when that
// is no later than the park instant: the tick there is a no-op and
// re-decides. Otherwise it moves to the park instant. Only when the tick
// at g might act is it re-armed at g, as a fired wake would have it.
func (k *Kernel) reviewTick(rq *RunQueue) {
	p := k.Opts.TickPeriod
	g := rq.lastTickAt + p
	busy := rq.current != nil
	var park sim.Time
	var ok bool
	if busy {
		park, ok = k.maybeParkBusyTick(rq, g-p)
	} else {
		park, ok = k.maybeParkTick(rq, g)
	}
	if !ok {
		k.stats.ReviewsRearmed++
		k.Engine.Reschedule(rq.tickEv, g)
		return
	}
	rq.tickParked = true
	if busy {
		rq.tickBusy = true
	} else {
		k.parkedTicks++
	}
	if rq.tickEv.At() <= park {
		k.stats.ReviewsKept++
		return
	}
	k.stats.ReviewsMoved++
	k.Engine.Reschedule(rq.tickEv, park)
}

// idleBalance runs when a CPU found no runnable task: classes get, in
// priority order, a chance to pull work from other CPUs (the "idle CPU
// pulls from busiest run queue" behaviour of the framework). The scan is
// skipped when it provably finds nothing: while every queued task is
// pinned to one CPU (nrMigratable == 0), and while the negative-result
// cache holds. If no pull succeeds, the SMT-domain active balance may
// migrate a *running* task from a doubly-busy core to a fully idle one.
func (k *Kernel) idleBalance(rq *RunQueue) *Task {
	if k.nrMigratable == 0 {
		// Nothing queued anywhere, or only tasks pinned to one CPU — their
		// own, never this one, or this CPU would have picked them: every
		// Steal tests MayRunOn first, so the busiest-scan below would come
		// up empty. Go straight to the SMT-domain active balance, and do
		// not wake the busiest CPU's busy-parked tick for a futile Steal.
		if k.nrQueued != 0 {
			k.stats.StealPinnedSkips++
		}
		return k.activeBalance(rq)
	}
	// Negative-result cache (the "cache-hot daemon queued behind a running
	// rank" case): if no queue membership changed since this CPU's last
	// failed pull and no hot-rejected candidate has cooled yet, the scan
	// below would provably fail again — affinity masks are fixed at spawn,
	// so a failed Steal can only start succeeding through one of those two
	// events. Skip straight to the SMT-domain active balance.
	if rq.lbFailed && rq.lbFailGen == k.queueGen && k.Now() < rq.lbRetryAt {
		k.stats.StealCacheSkips++
		return k.activeBalance(rq)
	}
	k.stats.StealScans++
	k.stealColdAt = sim.MaxTime
	for ci := range k.classes {
		if k.nrQueuedClass[ci] == 0 {
			continue // no queued task of this class anywhere
		}
		// Find the busiest CPU for this class.
		busiest, best := -1, 0
		for other := 0; other < len(k.rqs); other++ {
			if other == rq.CPU {
				continue
			}
			if n := k.rqs[other].classRQ[ci].Len(); n > best {
				best, busiest = n, other
			}
		}
		if busiest < 0 {
			continue
		}
		brq := k.rqs[busiest]
		// A successful steal mutates the victim queue (and, for CFS, reads
		// its settled min_vruntime): wake a busy-parked tick there first.
		k.wakeBusyParked(brq)
		if t := brq.classRQ[ci].Steal(rq.CPU); t != nil {
			k.noteDequeued(brq, t)
			t.CPU = rq.CPU
			t.Migrations++
			k.MigSteal++
			rq.lbFailed = false
			return t
		}
	}
	rq.lbFailed = true
	rq.lbFailGen = k.queueGen
	rq.lbRetryAt = k.stealColdAt
	return k.activeBalance(rq)
}

// activeBalance implements the 2.6.24 SMT-domain capacity rule: an idle
// core (both contexts without work) pulls one of the two running tasks of
// a core whose contexts are both busy. Without it, two SPMD ranks that a
// wakeup once co-scheduled on one core would share it forever while
// another core idles, which the real kernel's sched-domain balancer never
// allows. Like the real active_load_balance — which only fires after
// repeated failed balance attempts — it requires the imbalance to have
// persisted (several ticks of idleness), so momentary wait windows do not
// tear stable placements apart.
func (k *Kernel) activeBalance(rq *RunQueue) *Task {
	if k.Now()-rq.idleSince < 4*k.Opts.TickPeriod {
		return nil // not idle long enough (nr_balance_failed gating)
	}
	sib := k.rqs[rq.CPU^1]
	if sib.current != nil || sib.NrQueued() > 0 {
		return nil // this core is not fully idle
	}
	if k.Now()-sib.idleSince < 4*k.Opts.TickPeriod {
		return nil // the sibling context only just went idle
	}
	// The receiving core must be idle *on average* too: a core whose
	// tasks merely wait between phases keeps a high decayed load and must
	// not attract migrations (cpu_load semantics). Both contexts are idle
	// here, so their load may be lagging tickless parks — settle it up to
	// the last tick instant before reading. Donor cores are busy, and may
	// be lagging busy parks instead: their loads are settled below
	// (settleBusyLoad) right before their thresholds are read.
	k.settleIdleLoad(rq, k.Now())
	k.settleIdleLoad(sib, k.Now())
	if rq.loadAvg() > 0.35 || sib.loadAvg() > 0.35 {
		return nil
	}
	for base := 0; base < len(k.rqs); base += 2 {
		if base == rq.CPU&^1 {
			continue
		}
		a, b := k.rqs[base], k.rqs[base+1]
		if a.current == nil || b.current == nil {
			continue
		}
		// The donor core must be persistently saturated on both contexts.
		// Settle any busy-parked load lag before reading the thresholds.
		k.settleBusyLoad(a, k.Now())
		k.settleBusyLoad(b, k.Now())
		if a.loadAvg() < 0.75 || b.loadAvg() < 0.75 {
			continue
		}
		// Prefer migrating the second context's task (deterministic).
		for _, donor := range []*RunQueue{b, a} {
			t := donor.current
			if t == nil || !t.MayRunOn(rq.CPU) {
				continue
			}
			k.wakeBusyParked(donor) // the donor's running task is leaving
			k.account(t)
			k.unplanBurst(t)
			donor.current = nil
			k.tickStateChanged()
			k.Chip.CPU(donor.CPU).SetBusy(false)
			t.state = StateRunnable
			t.CPU = rq.CPU
			t.Migrations++
			k.MigActive++
			k.traceState(t, StateRunnable, rq.CPU)
			k.Resched(donor.CPU)
			return t
		}
	}
	return nil
}
