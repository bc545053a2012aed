package sched

// idleClass is the lowest class. In this simulation the idle task is
// implicit (an idle CPU simply has no current task and its context is
// marked not-busy, which is what the power5 model needs), so the class
// never returns a runnable task; it exists to complete the framework's
// class list, to serve PolicyIdle tasks (which are queued but only ever
// picked when everything above is empty — they are modelled as ordinary
// FIFO tasks at the bottom of the class order), and to render Figure 1.
type idleClass struct{}

var idlePolicies = []Policy{PolicyIdle}

func newIdleClass() *idleClass { return &idleClass{} }

func (c *idleClass) Name() string       { return "idle" }
func (c *idleClass) Policies() []Policy { return idlePolicies }

func (c *idleClass) NewRQ(k *Kernel, cpu int) ClassRQ {
	return &idleRQ{k: k, cpu: cpu}
}

func (c *idleClass) SelectCPU(k *Kernel, t *Task, wakeup bool) int {
	// Keep wake affinity like every other class; balancing pulls handle
	// the rest.
	if wakeup && t.CPU >= 0 && t.MayRunOn(t.CPU) && k.CPUOnline(t.CPU) {
		return t.CPU
	}
	return firstAllowedCPU(k, t)
}

func (c *idleClass) TaskSleep(k *Kernel, t *Task) {}
func (c *idleClass) TaskWake(k *Kernel, t *Task)  {}

type idleRQ struct {
	k     *Kernel
	cpu   int
	queue []*Task
}

func (rq *idleRQ) Enqueue(t *Task, wakeup bool) { rq.queue = append(rq.queue, t) }

func (rq *idleRQ) Dequeue(t *Task) {
	for i, q := range rq.queue {
		if q == t {
			rq.queue = append(rq.queue[:i], rq.queue[i+1:]...)
			return
		}
	}
	panic("sched: idle Dequeue of unqueued task")
}

func (rq *idleRQ) PickNext() *Task {
	if len(rq.queue) == 0 {
		return nil
	}
	t := rq.queue[0]
	rq.queue = rq.queue[1:]
	return t
}

func (rq *idleRQ) Tick(t *Task) {}

// TickNoops implements TickHorizon: the idle class's Tick is
// unconditionally empty.
func (rq *idleRQ) TickNoops(t *Task) int { return tickNoopsForever }

func (rq *idleRQ) CheckPreempt(curr, woken *Task) bool { return false }

func (rq *idleRQ) Len() int { return len(rq.queue) }

func (rq *idleRQ) Steal(dstCPU int) *Task {
	for i, t := range rq.queue {
		if t.MayRunOn(dstCPU) {
			rq.queue = append(rq.queue[:i], rq.queue[i+1:]...)
			return t
		}
	}
	return nil
}

// firstAllowedCPU returns the lowest-numbered online CPU in the task's
// affinity.
func firstAllowedCPU(k *Kernel, t *Task) int {
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		if t.MayRunOn(cpu) && k.CPUOnline(cpu) {
			return cpu
		}
	}
	panic("sched: task with empty affinity")
}

// idlestAllowedCPU returns the allowed CPU with the fewest runnable tasks,
// preferring (in order) the task's previous CPU on ties, then the lowest
// CPU number. Deterministic by construction.
func idlestAllowedCPU(k *Kernel, t *Task) int {
	best, bestLoad := -1, int(^uint(0)>>1)
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		if !t.MayRunOn(cpu) || !k.CPUOnline(cpu) {
			continue
		}
		load := k.RQ(cpu).NrRunning()
		switch {
		case load < bestLoad:
			best, bestLoad = cpu, load
		case load == bestLoad && cpu == t.CPU:
			best = cpu
		}
	}
	if best < 0 {
		panic("sched: task with empty affinity")
	}
	return best
}
