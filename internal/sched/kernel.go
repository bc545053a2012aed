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

	// The periodic tick (tick.go): its event, fired on the CPU's grid —
	// its first tick instant + k·period — unless parked, and where the
	// event stands (tickState). period is Options.TickPeriod.
	tickEv     *sim.Event
	period     sim.Time
	lastTickAt sim.Time // last accounted grid instant (fired or elided)
	tick       tickState

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
	// dequeue wakes no idle park (queueChanged).
	nrMigratable int

	// queueGen counts class-queue membership changes machine-wide; it
	// versions the per-CPU idle-balance negative-result caches.
	// stealColdAt is pass-local scratch: Steal implementations record —
	// via BalanceCacheHot — the earliest instant a candidate rejected for
	// cache-hotness will cool.
	queueGen    uint64
	stealColdAt sim.Time

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
		if rq.parked() {
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
		// Parked stretches survive the stop (the exit that stopped the
		// engine wakes at most its sibling's idle park).
		k.Settle()
	}
	return k.Now()
}

// Settle closes every still-open parked stretch, busy and idle, through the
// last grid instant before the present, so end-of-run readers (reports,
// fingerprints) find the same accounting and load averages an
// always-ticking run would have left; the ticks stay parked. It is the
// step RunUntilWatchedExit performs after its Run returns. Externally-
// stepped drivers call it once their stepping is finished, before reading
// metrics or finishing trace recorders: the cluster runner, which advances
// each node's engine in lookahead windows itself, is one, and every
// experiment run — a single node included — goes through it.
func (k *Kernel) Settle() {
	for _, rq := range k.rqs {
		if rq.parked() {
			k.settleStretch(rq, k.Now()-1)
		}
	}
}

// Shutdown releases the goroutines of every process that has not exited
// (daemons and abandoned tasks). The kernel must not be used afterwards.
// Call it when a simulation run is complete; it is what keeps long test
// and benchmark sessions from accumulating parked goroutines.
func (k *Kernel) Shutdown() {
	k.Settle()
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
	// A busy-parked tick's horizon assumed the running class's queue
	// frozen; replay and wake it before the enqueue mutates it (the CFS
	// enqueue also reads the settled min_vruntime for its placement). A
	// lower class cannot change the running class's TickNoops, and a
	// higher class preempts: the scheduling pass wakes the park.
	if cur := rq.current; cur != nil && cur.classIdx == t.classIdx {
		k.wakeBusyParked(rq)
	}
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
	k.vacate(t)
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
	k.vacate(t)
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

// vacate takes the running task t off its CPU, leaving the CPU with no
// current task and t's state for the caller to set. Every off-CPU
// transition — sleep, exit, active migration, hotplug evacuation — goes
// through it, in this order: settle a busy-parked tick while t still runs
// (its horizon assumed t on the CPU), account t's on-CPU time, settle and
// cancel its burst plan, clear current, wake the sibling's idle park — its
// core may now be fully idle; no other idle horizon can fall (see
// wakeIdleParks) — before the caller's Resched, so a tick woken on its
// grid keeps its place ahead of the pass, and only then mark the context
// idle, whose speed hook replans the sibling's burst.
func (k *Kernel) vacate(t *Task) {
	rq := k.rqs[t.CPU]
	k.wakeBusyParked(rq)
	k.account(t)
	k.unplanBurst(t)
	rq.current = nil
	k.wakeIdlePark(k.rqs[t.CPU^1])
	k.Chip.CPU(t.CPU).SetBusy(false)
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
	k.queueChanged(t)
}

func (k *Kernel) noteDequeued(rq *RunQueue, t *Task) {
	k.nrQueued--
	k.nrQueuedClass[t.classIdx]--
	k.queueGen++
	rq.nrQueued--
	if !t.pinned {
		k.nrMigratable--
	}
	k.queueChanged(t)
}

// BalanceCacheHot reports whether t is too cache-hot for the load balancer
// to migrate, recording the earliest instant it will cool so a failed
// idle-balance pass knows when a rescan can first change its outcome.
// Steal implementations must reject every hot candidate through it, or the
// negative-result cache would skip a scan that could now succeed.
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
	// The CPU's own park ends. When the sibling runs a task too, the core
	// just became doubly busy — a donor for every idle core's active
	// balance — so every idle park wakes (see wakeIdleParks).
	if k.rqs[rq.CPU^1].current != nil {
		k.wakeIdleParks(k.rqs)
	} else {
		k.wakeIdlePark(rq)
	}

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
	t.planAt = k.Now()
	t.planSpeed = ctx.Speed()
	t.finishEv = k.Engine.After(rq.burstDelay(t.remaining, t.planSpeed), t.burstFn)
}

// burstDelay returns how long remaining work takes at speed on rq's CPU,
// plus the one-shot penalty of the context switch that preceded it, which
// it consumes. The +1ns keeps a plan from ever rounding to "done" early.
func (rq *RunQueue) burstDelay(remaining, speed float64) sim.Time {
	if speed <= 0 {
		panic(fmt.Sprintf("sched: context %d has zero speed for running task", rq.CPU))
	}
	delay := sim.Time(remaining/speed) + 1 + rq.switchPenalty
	rq.switchPenalty = 0
	return delay
}

// unplanBurst settles the work done so far and cancels the completion
// event.
func (k *Kernel) unplanBurst(t *Task) {
	if t.finishEv == nil {
		return
	}
	done := t.planned(k.Now())
	k.Engine.Cancel(t.finishEv)
	t.finishEv = nil
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
		newSpeed := ctx.Speed()
		if newSpeed == t.planSpeed {
			continue
		}
		done := t.planned(now)
		t.SumWork += done
		t.remaining -= done
		t.planAt = now
		t.planSpeed = newSpeed
		at := now // a change exactly at completion finishes now
		if t.remaining > 0 {
			at += rq.burstDelay(t.remaining, newSpeed)
		}
		k.Engine.Reschedule(t.finishEv, at)
	}
}

// ---------------------------------------------------------------------------
// Balancing (the periodic tick and its tickless machinery are in tick.go)
// ---------------------------------------------------------------------------

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
			k.vacate(t)
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
