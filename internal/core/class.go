package core

import (
	"fmt"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// Discipline selects the HPC class's queueing algorithm. The paper
// implements both and reports results for round robin, having observed
// that with one task per CPU the two are indistinguishable.
type Discipline int

const (
	// DisciplineRR: fixed timeslice, expired tasks go to the tail.
	DisciplineRR Discipline = iota
	// DisciplineFIFO: the picked task runs until it blocks or yields.
	DisciplineFIFO
)

func (d Discipline) String() string {
	if d == DisciplineFIFO {
		return "FIFO"
	}
	return "RR"
}

// Config assembles an HPC class.
type Config struct {
	Heuristic  Heuristic  // default: UniformHeuristic
	Mechanism  Mechanism  // default: POWER5Mechanism
	Discipline Discipline // default: RR
	Params     Params     // default: DefaultParams
}

// HPCClass is the sched_hpc scheduling class. Registered between the
// real-time and fair classes, it gives SCHED_HPC tasks absolute priority
// over normal tasks while preserving real-time semantics (Figure 1(b)).
type HPCClass struct {
	heuristic Heuristic
	mechanism Mechanism
	disc      Discipline
	params    Params

	kernel *sched.Kernel
	rqs    []*hpcRQ

	// Balanced counts heuristic invocations that kept the priority;
	// Changes counts priority changes. Exposed for tests and reports.
	Changes  int64
	Holds    int64
	WakeUps  int64
	Filtered int64
}

// Install builds the class from cfg and registers it with the kernel,
// immediately before the fair class. It returns the class for inspection
// and tuning.
func Install(k *sched.Kernel, cfg Config) (*HPCClass, error) {
	if cfg.Heuristic == nil {
		cfg.Heuristic = UniformHeuristic{}
	}
	if cfg.Mechanism == nil {
		cfg.Mechanism = POWER5Mechanism{}
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	c := &HPCClass{
		heuristic: cfg.Heuristic,
		mechanism: cfg.Mechanism,
		disc:      cfg.Discipline,
		params:    cfg.Params,
	}
	c.kernel = k
	k.RegisterClassBefore("fair", c)
	return c, nil
}

// MustInstall is Install, panicking on configuration errors.
func MustInstall(k *sched.Kernel, cfg Config) *HPCClass {
	c, err := Install(k, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Params returns the current tunables.
func (c *HPCClass) Params() Params { return c.params }

// SetParams replaces the tunables (the sysfs write path).
func (c *HPCClass) SetParams(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.params = p
	return nil
}

// Heuristic returns the active heuristic.
func (c *HPCClass) Heuristic() Heuristic { return c.heuristic }

// Mechanism returns the active mechanism.
func (c *HPCClass) Mechanism() Mechanism { return c.mechanism }

// Name implements sched.Class.
func (c *HPCClass) Name() string { return "hpc" }

var hpcPolicies = []sched.Policy{sched.PolicyHPC}

// Policies implements sched.Class.
func (c *HPCClass) Policies() []sched.Policy { return hpcPolicies }

// NewRQ implements sched.Class.
func (c *HPCClass) NewRQ(k *sched.Kernel, cpu int) sched.ClassRQ {
	rq := &hpcRQ{class: c, k: k, cpu: cpu, ring: make([]*sched.Task, initialRingCap)}
	for len(c.rqs) <= cpu {
		c.rqs = append(c.rqs, nil)
	}
	c.rqs[cpu] = rq
	return rq
}

// hpcLoad returns the number of HPC tasks on a CPU (queued + running).
func (c *HPCClass) hpcLoad(cpu int) int {
	n := c.rqs[cpu].Len()
	if cur := c.kernel.RQ(cpu).Current(); cur != nil && cur.Class() == sched.Class(c) {
		n++
	}
	return n
}

// coreLoad returns the number of HPC tasks on the core containing cpu.
func (c *HPCClass) coreLoad(cpu int) int {
	base := cpu &^ 1
	return c.hpcLoad(base) + c.hpcLoad(base+1)
}

// SelectCPU implements sched.Class: the paper's per-domain workload
// balancing ("each processor domain running the same number of processes")
// expressed as a placement rule. New tasks fill CPUs in numbering order
// (one rank per context, consecutive ranks sharing a core — the layout MPI
// jobs get on the paper's machine). Wakeups stay on the previous CPU
// unless it already holds another HPC task; then the task moves to the
// allowed CPU minimising (own HPC load, core HPC load, CPU number) — the
// domain-levelling rule of §IV-A.
func (c *HPCClass) SelectCPU(k *sched.Kernel, t *sched.Task, wakeup bool) int {
	if wakeup && t.CPU >= 0 && t.MayRunOn(t.CPU) && k.CPUOnline(t.CPU) &&
		c.hpcLoad(t.CPU) == 0 {
		return t.CPU
	}
	best := -1
	var bestCPU, bestCore int
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		if !t.MayRunOn(cpu) || !k.CPUOnline(cpu) {
			continue
		}
		cpuLoad := c.hpcLoad(cpu)
		coreLoad := c.coreLoad(cpu)
		if !wakeup {
			coreLoad = 0 // fill in CPU order at spawn time
		}
		if best < 0 || cpuLoad < bestCPU ||
			(cpuLoad == bestCPU && coreLoad < bestCore) ||
			(cpuLoad == bestCPU && coreLoad == bestCore && wakeup && cpu == t.CPU) {
			best, bestCPU, bestCore = cpu, cpuLoad, coreLoad
		}
	}
	if best < 0 {
		panic("core: HPC task with empty affinity")
	}
	return best
}

// TaskSleep implements sched.Class: the end of a compute phase.
func (c *HPCClass) TaskSleep(k *sched.Kernel, t *sched.Task) {
	lidStateOf(t).onSleep(k.Now())
}

// TaskWake implements sched.Class: the iteration boundary. The detector
// closes the iteration and the heuristic sets the priority the mechanism
// will program when the task is next dispatched — i.e. before iteration
// i+1 computes. A task in the stable state skips the heuristic entirely
// until its behaviour drifts (§IV-B).
func (c *HPCClass) TaskWake(k *sched.Kernel, t *sched.Task) {
	s := lidStateOf(t)
	c.WakeUps++
	if !s.onWake(k.Now(), t.SumExec, c.params.MinIterTime) {
		if !s.pendingStart {
			c.Filtered++
		}
		return
	}
	p := c.params
	if s.Frozen && p.StableUtilBand > 0 {
		if s.stillStable(p.StableUtilBand, p.StableIterBand) {
			c.Holds++
			return
		}
		// Behaviour changed: leave the stable state and forget the stale
		// history so the heuristic sees the new phase.
		s.Frozen = false
		s.Unfreezes++
		s.resetHistory()
	}
	cur := t.HWPrio
	next := c.heuristic.Next(s, cur, p)
	s.logDecision(Decision{
		At:        k.Now(),
		Iteration: s.Iterations,
		LastUtil:  s.LastUtil,
		Global:    s.GlobalUtil,
		Score:     s.Score,
		OldPrio:   int(cur),
		NewPrio:   int(next),
	})
	if next != cur {
		c.Changes++
		c.mechanism.Apply(k, t, next)
		// History gathered under the old priority no longer predicts
		// behaviour under the new one.
		s.resetHistory()
		s.prevHold = false
		s.havePrev = true
		s.prevUtil = s.LastUtil
	} else {
		c.Holds++
		if p.StableUtilBand > 0 {
			s.maybeFreeze(true, p.StableUtilBand)
		}
	}
}

// String describes the class configuration.
func (c *HPCClass) String() string {
	return fmt.Sprintf("hpc(%s, heuristic=%s, mechanism=%s, prio=[%d,%d], util=[%v,%v])",
		c.disc, c.heuristic.Name(), c.mechanism.Name(),
		int(c.params.MinPrio), int(c.params.MaxPrio),
		c.params.LowUtil, c.params.HighUtil)
}

// hpcRQ is the per-CPU HPC run queue: a plain round-robin list — "with
// this small number of processes in the run queue list, a simple
// round-robin list is as good as a more complex red-black tree" (§IV-A) —
// kept as a flat power-of-two ring, so enqueue/pick never shift or
// reallocate in steady state. The RR quantum lives on the task's LIDState
// (tagged with the owning queue), replacing the old per-queue map.
type hpcRQ struct {
	class *HPCClass
	k     *sched.Kernel
	cpu   int
	ring  []*sched.Task // power-of-two capacity circular buffer
	head  int
	n     int
}

// initialRingCap pre-sizes each per-CPU ring for the paper's workloads
// (one rank per context plus stragglers) without growth.
const initialRingCap = 8

// at returns the i-th queued task (0 = head).
func (rq *hpcRQ) at(i int) *sched.Task {
	return rq.ring[(rq.head+i)&(len(rq.ring)-1)]
}

// set stores t at logical position i.
func (rq *hpcRQ) set(i int, t *sched.Task) {
	rq.ring[(rq.head+i)&(len(rq.ring)-1)] = t
}

// grow doubles the ring, re-laying the queue from the head.
func (rq *hpcRQ) grow() {
	capNow := len(rq.ring)
	if capNow == 0 {
		capNow = initialRingCap / 2
	}
	nr := make([]*sched.Task, capNow*2)
	for i := 0; i < rq.n; i++ {
		nr[i] = rq.at(i)
	}
	rq.ring = nr
	rq.head = 0
}

// removeAt deletes the task at logical position i, shifting the shorter
// side of the ring to close the gap (queue order preserved).
func (rq *hpcRQ) removeAt(i int) {
	if i < rq.n-i-1 {
		// Shift the head side forward.
		for j := i; j > 0; j-- {
			rq.set(j, rq.at(j-1))
		}
		rq.set(0, nil)
		rq.head = (rq.head + 1) & (len(rq.ring) - 1)
	} else {
		// Shift the tail side back.
		for j := i; j < rq.n-1; j++ {
			rq.set(j, rq.at(j+1))
		}
		rq.set(rq.n-1, nil)
	}
	rq.n--
}

// Enqueue implements sched.ClassRQ. Both wakeups and requeues go to the
// tail (the paper's RR semantics: an expired task is placed at the end).
func (rq *hpcRQ) Enqueue(t *sched.Task, wakeup bool) {
	for i := 0; i < rq.n; i++ {
		if rq.at(i) == t {
			panic("core: HPC double enqueue")
		}
	}
	if rq.n == len(rq.ring) {
		rq.grow()
	}
	rq.set(rq.n, t)
	rq.n++
	// The very first enqueue opens the detector's tracking window.
	lidStateOf(t).beginTracking(rq.k.Now(), t.SumExec)
}

// Dequeue implements sched.ClassRQ.
func (rq *hpcRQ) Dequeue(t *sched.Task) {
	for i := 0; i < rq.n; i++ {
		if rq.at(i) == t {
			rq.removeAt(i)
			return
		}
	}
	panic("core: HPC dequeue of unqueued task")
}

// rrStateFor returns the task's RR bookkeeping, claiming it for this queue
// (with an implicit zero quantum, as a fresh map entry had) if another
// queue owned it. Unlike the old map, a residual quantum left on a
// previously-owned queue is dropped rather than resumed (see LIDState).
func (rq *hpcRQ) rrStateFor(t *sched.Task) *LIDState {
	s := lidStateOf(t)
	if s.rrOwner != rq {
		s.rrOwner = rq
		s.rrSlice = 0
	}
	return s
}

// PickNext implements sched.ClassRQ.
func (rq *hpcRQ) PickNext() *sched.Task {
	if rq.n == 0 {
		return nil
	}
	t := rq.ring[rq.head]
	rq.ring[rq.head] = nil
	rq.head = (rq.head + 1) & (len(rq.ring) - 1)
	rq.n--
	if rq.class.disc == DisciplineRR {
		s := rq.rrStateFor(t)
		if s.rrSlice <= 0 {
			s.rrSlice = rq.class.params.Timeslice
		}
	}
	return t
}

// Tick implements sched.ClassRQ: RR quantum bookkeeping. FIFO tasks run
// until they block or yield.
func (rq *hpcRQ) Tick(t *sched.Task) {
	if rq.class.disc != DisciplineRR {
		return
	}
	s := rq.rrStateFor(t)
	s.rrSlice -= rq.k.Opts.TickPeriod
	if s.rrSlice <= 0 && rq.n > 0 {
		s.rrSlice = 0
		rq.k.Resched(rq.cpu)
	}
}

// TickNoops implements sched.TickHorizon. FIFO never reschedules from the
// tick; with an empty queue the RR clause (rq.n > 0) cannot fire either —
// the quantum then merely drifts negative, bookkeeping ElideTicks
// reproduces exactly. Otherwise the quantum reaches zero after an
// exactly computable number of per-period decrements.
func (rq *hpcRQ) TickNoops(t *sched.Task) int {
	if rq.class.disc != DisciplineRR || rq.n == 0 {
		return tickNoopsForever
	}
	s := rq.rrStateFor(t)
	if s.rrSlice <= 0 {
		return 0
	}
	return int((s.rrSlice - 1) / rq.k.Opts.TickPeriod)
}

// ElideTicks implements sched.TickHorizon: n RR quantum decrements. Inside
// a TickNoops bound none of them reaches the Resched clause, and with an
// empty queue the quantum drifts negative exactly as n Tick calls leave
// it. FIFO keeps no quantum.
func (rq *hpcRQ) ElideTicks(t *sched.Task, n int) {
	if rq.class.disc == DisciplineRR {
		rq.rrStateFor(t).rrSlice -= sim.Time(n) * rq.k.Opts.TickPeriod
	}
}

// tickNoopsForever mirrors sched.tickNoopsForever: any value far above the
// kernel's park cap means "never".
const tickNoopsForever = int(^uint32(0) >> 1)

// CheckPreempt implements sched.ClassRQ: within the class, a wakeup does
// not preempt (queue order decides); with one task per CPU this never
// arises.
func (rq *hpcRQ) CheckPreempt(curr, woken *sched.Task) bool { return false }

// Len implements sched.ClassRQ.
func (rq *hpcRQ) Len() int { return rq.n }

// Steal implements sched.ClassRQ: the HPC workload balancer's pull path —
// an idle (or HPC-empty) CPU pulls a queued, non-cache-hot HPC task,
// keeping the number of tasks per domain level even.
func (rq *hpcRQ) Steal(dstCPU int) *sched.Task {
	// Hotness is checked through BalanceCacheHot so a failed pass feeds the
	// kernel's idle-balance negative-result cache.
	for i := 0; i < rq.n; i++ {
		t := rq.at(i)
		if t.MayRunOn(dstCPU) && !rq.k.BalanceCacheHot(t) {
			rq.removeAt(i)
			return t
		}
	}
	return nil
}
