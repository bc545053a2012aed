package sched

import "hpcsched/internal/sim"

// rtEntity is the per-task real-time state.
type rtEntity struct {
	sliceLeft sim.Time // remaining SCHED_RR quantum
	queued    bool
}

// rtClass implements the real-time class: 100 priority levels, each a FIFO
// list, essentially the old O(1) scheduler preserved inside the new
// framework (paper §III). Higher RTPrio wins.
type rtClass struct{}

var rtPolicies = []Policy{PolicyFIFO, PolicyRR}

func newRTClass() *rtClass { return &rtClass{} }

func (c *rtClass) Name() string       { return "rt" }
func (c *rtClass) Policies() []Policy { return rtPolicies }

func (c *rtClass) NewRQ(k *Kernel, cpu int) ClassRQ {
	return &rtRQ{k: k, cpu: cpu}
}

func (c *rtClass) SelectCPU(k *Kernel, t *Task, wakeup bool) int {
	// Real-time placement: previous CPU if allowed and not running a
	// higher-priority RT task, else the idlest allowed CPU.
	if t.CPU >= 0 && t.MayRunOn(t.CPU) && k.CPUOnline(t.CPU) {
		cur := k.RQ(t.CPU).Current()
		if cur == nil || cur.class != t.class || cur.RTPrio < t.RTPrio {
			return t.CPU
		}
	}
	return idlestAllowedCPU(k, t)
}

func (c *rtClass) TaskSleep(k *Kernel, t *Task) {}
func (c *rtClass) TaskWake(k *Kernel, t *Task)  {}

const rtLevels = 100

type rtRQ struct {
	k      *Kernel
	cpu    int
	queues [rtLevels][]*Task
	n      int
}

func (rq *rtRQ) Enqueue(t *Task, wakeup bool) {
	if t.rt.queued {
		panic("sched: RT double enqueue")
	}
	p := clampRTPrio(t.RTPrio)
	rq.queues[p] = append(rq.queues[p], t)
	t.rt.queued = true
	rq.n++
}

func (rq *rtRQ) Dequeue(t *Task) {
	p := clampRTPrio(t.RTPrio)
	for i, q := range rq.queues[p] {
		if q == t {
			rq.queues[p] = append(rq.queues[p][:i], rq.queues[p][i+1:]...)
			t.rt.queued = false
			rq.n--
			return
		}
	}
	panic("sched: RT dequeue of unqueued task")
}

func (rq *rtRQ) PickNext() *Task {
	if rq.n == 0 {
		return nil
	}
	for p := rtLevels - 1; p >= 0; p-- {
		if len(rq.queues[p]) > 0 {
			t := rq.queues[p][0]
			rq.queues[p] = rq.queues[p][1:]
			t.rt.queued = false
			rq.n--
			if t.policy == PolicyRR && t.rt.sliceLeft <= 0 {
				t.rt.sliceLeft = rq.k.Opts.RTRRTimeslice
			}
			return t
		}
	}
	panic("sched: RT count out of sync")
}

func (rq *rtRQ) Tick(t *Task) {
	if t.policy != PolicyRR {
		return // SCHED_FIFO runs until it yields or blocks
	}
	t.rt.sliceLeft -= rq.k.Opts.TickPeriod
	if t.rt.sliceLeft <= 0 {
		t.rt.sliceLeft = 0 // refilled on next pick
		rq.k.Resched(rq.cpu)
	}
}

// TickNoops implements TickHorizon. SCHED_FIFO never reschedules from the
// tick; SCHED_RR requests one when the quantum — decremented by one period
// per tick — reaches zero, which is exact integer arithmetic.
func (rq *rtRQ) TickNoops(t *Task) int {
	if t.policy != PolicyRR {
		return tickNoopsForever
	}
	if t.rt.sliceLeft <= 0 {
		return 0
	}
	return int((t.rt.sliceLeft - 1) / rq.k.Opts.TickPeriod)
}

func (rq *rtRQ) CheckPreempt(curr, woken *Task) bool {
	return woken.RTPrio > curr.RTPrio
}

func (rq *rtRQ) Len() int { return rq.n }

func (rq *rtRQ) Steal(dstCPU int) *Task {
	for p := rtLevels - 1; p >= 0; p-- {
		for i, t := range rq.queues[p] {
			if t.MayRunOn(dstCPU) {
				rq.queues[p] = append(rq.queues[p][:i], rq.queues[p][i+1:]...)
				t.rt.queued = false
				rq.n--
				return t
			}
		}
	}
	return nil
}

func clampRTPrio(p int) int {
	if p < 0 {
		return 0
	}
	if p >= rtLevels {
		return rtLevels - 1
	}
	return p
}
