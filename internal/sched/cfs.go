package sched

import "hpcsched/internal/sim"

// niceToWeight is the kernel's prio_to_weight table: each nice step changes
// the CPU share by ~10%.
var niceToWeight = [40]int64{
	/* -20 */ 88761, 71755, 56483, 46273, 36291,
	/* -15 */ 29154, 23254, 18705, 14949, 11916,
	/* -10 */ 9548, 7620, 6100, 4904, 3906,
	/*  -5 */ 3121, 2501, 1991, 1586, 1277,
	/*   0 */ 1024, 820, 655, 526, 423,
	/*   5 */ 335, 272, 215, 172, 137,
	/*  10 */ 110, 87, 70, 56, 45,
	/*  15 */ 36, 29, 23, 18, 15,
}

const nice0Weight = 1024

// cfsEntity is the per-task CFS state (sched_entity).
type cfsEntity struct {
	vruntime    float64 // weighted virtual runtime, ns
	weight      int64
	queued      bool     // on its CPU's cfsRQ
	lastSumExec sim.Time // SumExec mark for vruntime deltas
	sliceStart  sim.Time // SumExec when the current slice began
	relative    bool     // vruntime is relative after a migration
}

func (e *cfsEntity) init(t *Task) {
	n := t.Nice
	if n < -20 {
		n = -20
	}
	if n > 19 {
		n = 19
	}
	e.weight = niceToWeight[n+20]
}

// fairClass is the Completely Fair Scheduler class.
type fairClass struct{}

var fairPolicies = []Policy{PolicyNormal, PolicyBatch}

func newFairClass() *fairClass { return &fairClass{} }

func (c *fairClass) Name() string       { return "fair" }
func (c *fairClass) Policies() []Policy { return fairPolicies }

func (c *fairClass) NewRQ(k *Kernel, cpu int) ClassRQ {
	return &cfsRQ{k: k, cpu: cpu, q: make([]*Task, 0, cfsQueueCapacity)}
}

func (c *fairClass) SelectCPU(k *Kernel, t *Task, wakeup bool) int {
	// New tasks: 2.6.24 does not balance at fork on the SMT/MC domains —
	// children land on the lowest-loaded CPU in numbering order, filling
	// cpu0, cpu1 (core 0), cpu2, cpu3 (core 1) sequentially. This is what
	// interleaves consecutive MPI ranks across the two contexts of each
	// core on the paper's machine.
	if !wakeup {
		return idlestAllowedCPU(k, t)
	}
	// Wakeups stay on the previous CPU (wake affinity): try_to_wake_up
	// does not search for an idlest CPU; imbalances are corrected by the
	// idle/periodic balancer pulling queued tasks instead.
	if t.CPU >= 0 && t.MayRunOn(t.CPU) && k.CPUOnline(t.CPU) {
		return t.CPU
	}
	return idlestAllowedCPU(k, t)
}

func (c *fairClass) TaskSleep(k *Kernel, t *Task) {
	// Settle vruntime at the end of the run period and let min_vruntime
	// catch up, so long solo runs do not freeze the queue's clock.
	t.cfs.vruntime += vruntimeDelta(t)
	if rq, ok := k.classRQFor(t).(*cfsRQ); ok {
		rq.updateMin(t.cfs.vruntime)
	}
}

func (c *fairClass) TaskWake(k *Kernel, t *Task) {}

// vruntimeDelta converts the task's unaccounted execution time into
// weighted vruntime and advances the mark.
func vruntimeDelta(t *Task) float64 {
	d := t.SumExec - t.cfs.lastSumExec
	t.cfs.lastSumExec = t.SumExec
	if d <= 0 {
		return 0
	}
	return float64(d) * float64(nice0Weight) / float64(t.cfs.weight)
}

// cfsQueueCapacity presizes each CFS queue past the handful of tasks a
// CPU here holds (one or two nearly all the time), so steady-state churn
// never grows the slice.
const cfsQueueCapacity = 8

// cfsRQ is the per-CPU CFS run queue: the queued tasks in ascending
// vruntime order, equal vruntimes in arrival order (the kernel's rbtree
// inserts a tie to the right), so q[0] is the leftmost task.
type cfsRQ struct {
	k           *Kernel
	cpu         int
	q           []*Task
	minVruntime float64
	weightSum   int64 // of queued tasks
}

// insert places t after every queued task whose vruntime is not larger.
// The scan runs from the tail, where a requeued or woken task usually
// lands.
func (rq *cfsRQ) insert(t *Task) {
	i := len(rq.q)
	for i > 0 && t.cfs.vruntime < rq.q[i-1].cfs.vruntime {
		i--
	}
	rq.q = append(rq.q, nil)
	copy(rq.q[i+1:], rq.q[i:])
	rq.q[i] = t
	t.cfs.queued = true
	rq.weightSum += t.cfs.weight
}

// remove takes t off the queue; it must be queued.
func (rq *cfsRQ) remove(t *Task) {
	i := 0
	for rq.q[i] != t {
		i++
	}
	n := len(rq.q) - 1
	copy(rq.q[i:], rq.q[i+1:])
	rq.q[n] = nil // drop the stale tail reference
	rq.q = rq.q[:n]
	t.cfs.queued = false
	rq.weightSum -= t.cfs.weight
}

func (rq *cfsRQ) Enqueue(t *Task, wakeup bool) {
	if t.cfs.queued {
		panic("sched: CFS double enqueue")
	}
	if t.cfs.relative {
		t.cfs.vruntime += rq.minVruntime
		t.cfs.relative = false
	}
	// Settle any run time accumulated since the last vruntime update
	// (requeue-after-preemption path).
	t.cfs.vruntime += vruntimeDelta(t)
	if wakeup {
		// place_entity: sleepers are placed slightly before min_vruntime
		// so they get a modest wakeup bonus, but never keep very old
		// vruntime (which would let them monopolise the CPU).
		floor := rq.minVruntime - float64(rq.k.Opts.CFSLatency)/2
		if t.cfs.vruntime < floor {
			t.cfs.vruntime = floor
		}
	} else if t.cfs.vruntime == 0 && rq.minVruntime > 0 {
		// Fresh task: start at the current minimum.
		t.cfs.vruntime = rq.minVruntime
	}
	rq.insert(t)
}

func (rq *cfsRQ) Dequeue(t *Task) {
	if !t.cfs.queued {
		panic("sched: CFS dequeue of unqueued task")
	}
	rq.remove(t)
}

func (rq *cfsRQ) PickNext() *Task {
	if len(rq.q) == 0 {
		return nil
	}
	t := rq.q[0]
	rq.remove(t)
	if t.cfs.vruntime > rq.minVruntime {
		rq.minVruntime = t.cfs.vruntime
	}
	t.cfs.sliceStart = t.SumExec
	return t
}

// sliceFor computes the ideal slice of the running task: a share of the
// scheduling latency proportional to its weight, floored by the minimum
// granularity, with the period stretched when many tasks are runnable.
func (rq *cfsRQ) sliceFor(t *Task) sim.Time {
	nr := len(rq.q) + 1
	period := rq.k.Opts.CFSLatency
	if minp := sim.Time(nr) * rq.k.Opts.CFSMinGranularity; minp > period {
		period = minp
	}
	total := rq.weightSum + t.cfs.weight
	slice := sim.Time(float64(period) * float64(t.cfs.weight) / float64(total))
	if slice < rq.k.Opts.CFSMinGranularity {
		slice = rq.k.Opts.CFSMinGranularity
	}
	return slice
}

// updateMin advances min_vruntime monotonically towards the minimum of the
// given (running task's) vruntime and the leftmost queued vruntime —
// update_curr's min_vruntime maintenance.
func (rq *cfsRQ) updateMin(currVruntime float64) {
	cand := currVruntime
	if len(rq.q) > 0 && rq.q[0].cfs.vruntime < cand {
		cand = rq.q[0].cfs.vruntime
	}
	if cand > rq.minVruntime {
		rq.minVruntime = cand
	}
}

func (rq *cfsRQ) Tick(t *Task) {
	t.cfs.vruntime += vruntimeDelta(t)
	rq.updateMin(t.cfs.vruntime)
	if len(rq.q) == 0 {
		return // nothing to be fair to
	}
	ran := t.SumExec - t.cfs.sliceStart
	if ran >= rq.sliceFor(t) {
		rq.k.Resched(rq.cpu)
		return
	}
	// Also preempt when the leftmost queued task has fallen far behind
	// (check_preempt_tick's second clause).
	if t.cfs.vruntime-rq.q[0].cfs.vruntime > float64(rq.sliceFor(t)) {
		rq.k.Resched(rq.cpu)
	}
}

// TickNoops implements TickHorizon. It counts from the CPU's next grid
// tick, next, which accounts t through next: with the task running
// continuously, SumExec at the k-th future tick is exactly
// SumExec + (next − lastUpdate) + (k−1)·period (integer arithmetic), so the
// slice-expiry clause is closed-form. The vruntime-lag clause iterates the
// exact float increments the ticks will apply against the frozen leftmost
// vruntime — the first spans the run time since the last vruntime update,
// each later one exactly one period, rounded as vruntimeDelta and
// ElideTicks round them — so the bound is exact, never optimistic. Right
// after Tick ran, lastUpdate is the present and the vruntime is current,
// so every increment spans one period.
func (rq *cfsRQ) TickNoops(t *Task) int {
	if len(rq.q) == 0 {
		return tickNoopsForever // nothing to be fair to: Tick never reschedules
	}
	p := rq.k.Opts.TickPeriod
	next := rq.k.rqs[rq.cpu].gridCeil(rq.k.Now() + 1)
	slice := rq.sliceFor(t)
	ran := t.SumExec - t.cfs.sliceStart + next - t.lastUpdate - p
	if ran >= slice {
		return 0
	}
	n := int((slice - ran - 1) / p) // largest k with ran + k·period < slice
	if n <= 0 {
		return 0
	}
	if n > ticklessParkCap {
		n = ticklessParkCap // no point iterating past the kernel's cap
	}
	m := rq.q[0].cfs.vruntime
	limit := float64(slice)
	first := t.SumExec - t.cfs.lastSumExec + next - t.lastUpdate
	delta := float64(p) * float64(nice0Weight) / float64(t.cfs.weight)
	v := t.cfs.vruntime + float64(first)*float64(nice0Weight)/float64(t.cfs.weight)
	for k := 1; ; k++ {
		if v-m > limit {
			return k - 1 // tick k is the first that may reschedule
		}
		if k == n {
			return n
		}
		v += delta
	}
}

// ElideTicks implements TickHorizon. Each elided Tick adds the same
// one-period vruntime delta, rounded exactly as vruntimeDelta rounds it,
// and calls updateMin. vruntime only grows and the leftmost queued task is
// frozen inside the stretch, so one updateMin with the final vruntime
// leaves the same min_vruntime as n of them; only the float adds remain
// per tick, since n rounded adds are not one multiplication.
func (rq *cfsRQ) ElideTicks(t *Task, n int) {
	p := rq.k.Opts.TickPeriod
	if t.SumExec-t.cfs.lastSumExec != sim.Time(n)*p {
		panic("sched: elided CFS ticks out of step with the accounting")
	}
	delta := float64(p) * float64(nice0Weight) / float64(t.cfs.weight)
	v := t.cfs.vruntime
	for range n {
		v += delta
	}
	t.cfs.vruntime = v
	t.cfs.lastSumExec = t.SumExec
	rq.updateMin(v)
}

func (rq *cfsRQ) CheckPreempt(curr, woken *Task) bool {
	if woken.policy == PolicyBatch {
		return false // batch tasks never preempt on wakeup
	}
	rq.k.account(curr)
	curr.cfs.vruntime += vruntimeDelta(curr)
	// Wakeup preemption is damped by the wakeup granularity, scaled to
	// the woken task's weight. This damping is precisely the scheduler
	// latency SCHED_NORMAL MPI tasks suffer in the paper's baseline.
	gran := float64(rq.k.Opts.CFSWakeupGranularity) *
		float64(nice0Weight) / float64(woken.cfs.weight)
	return curr.cfs.vruntime-woken.cfs.vruntime > gran
}

func (rq *cfsRQ) Len() int { return len(rq.q) }

func (rq *cfsRQ) Steal(dstCPU int) *Task {
	// Steal the task least likely to run soon: the largest vruntime among
	// migratable, non-cache-hot tasks. Hotness goes through BalanceCacheHot
	// so a failed pass feeds the idle-balance negative-result cache.
	var victim *Task
	for _, t := range rq.q {
		if t.MayRunOn(dstCPU) && !rq.k.BalanceCacheHot(t) {
			victim = t // keep the last (largest vruntime) migratable task
		}
	}
	if victim == nil {
		return nil
	}
	rq.remove(victim)
	// Renormalise vruntime relative to this queue; the destination adds
	// its own minimum back on the next enqueue.
	victim.cfs.vruntime -= rq.minVruntime
	if victim.cfs.vruntime < 0 {
		victim.cfs.vruntime = 0
	}
	victim.cfs.relative = true
	victim.cfs.sliceStart = victim.SumExec
	return victim
}
