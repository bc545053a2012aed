package core

import (
	"fmt"
	"testing"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// newTask builds a bare task usable by the ring (Enqueue touches only
// ClassData and SumExec).
func ringTask(name string) *sched.Task {
	return &sched.Task{Name: name}
}

// TestRingQueueFIFOOrder drives the ring through enough enqueue/pick
// cycles to wrap and grow it, checking the round-robin order survives.
func TestRingQueueFIFOOrder(t *testing.T) {
	_, c := newHPCKernel(t, Config{Discipline: DisciplineFIFO})
	rq := c.rqs[0]
	// Churn the head across the ring boundary.
	for round := 0; round < 5; round++ {
		var tasks []*sched.Task
		for i := 0; i < initialRingCap+3; i++ { // forces one grow
			tk := ringTask(fmt.Sprintf("T%d-%d", round, i))
			rq.Enqueue(tk, false)
			tasks = append(tasks, tk)
		}
		if rq.Len() != len(tasks) {
			t.Fatalf("Len = %d, want %d", rq.Len(), len(tasks))
		}
		for i, want := range tasks {
			if got := rq.PickNext(); got != want {
				t.Fatalf("round %d pick %d = %v, want %v", round, i, got, want)
			}
		}
		if rq.PickNext() != nil {
			t.Fatal("pick from empty ring returned a task")
		}
	}
}

// TestRingQueueDequeueMiddle removes tasks from arbitrary positions and
// checks the remaining order.
func TestRingQueueDequeueMiddle(t *testing.T) {
	_, c := newHPCKernel(t, Config{Discipline: DisciplineFIFO})
	rq := c.rqs[0]
	var tasks []*sched.Task
	for i := 0; i < 7; i++ {
		tk := ringTask(fmt.Sprintf("T%d", i))
		rq.Enqueue(tk, false)
		tasks = append(tasks, tk)
	}
	rq.Dequeue(tasks[3])
	rq.Dequeue(tasks[0])
	rq.Dequeue(tasks[6])
	want := []*sched.Task{tasks[1], tasks[2], tasks[4], tasks[5]}
	for i, w := range want {
		if got := rq.PickNext(); got != w {
			t.Fatalf("pick %d = %v, want %v", i, got, w)
		}
	}
}

// TestRingQueueDoubleEnqueuePanics preserves the old invariant check.
func TestRingQueueDoubleEnqueuePanics(t *testing.T) {
	_, c := newHPCKernel(t, Config{})
	rq := c.rqs[0]
	tk := ringTask("T")
	rq.Enqueue(tk, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double enqueue did not panic")
		}
	}()
	rq.Enqueue(tk, false)
}

// TestRingQueueDequeueUnqueuedPanics preserves the other invariant.
func TestRingQueueDequeueUnqueuedPanics(t *testing.T) {
	_, c := newHPCKernel(t, Config{})
	rq := c.rqs[0]
	defer func() {
		if recover() == nil {
			t.Fatal("dequeue of unqueued task did not panic")
		}
	}()
	rq.Dequeue(ringTask("T"))
}

// TestRRQuantumFreshPerQueue pins the per-queue quantum semantics the old
// map gave: a task arriving on another CPU's queue starts from a fresh
// timeslice there, whatever it had left elsewhere.
func TestRRQuantumFreshPerQueue(t *testing.T) {
	k, c := newHPCKernel(t, Config{Discipline: DisciplineRR})
	rq0, rq1 := c.rqs[0], c.rqs[1]
	tk := ringTask("T")
	rq0.Enqueue(tk, false)
	if got := rq0.PickNext(); got != tk {
		t.Fatal("pick failed")
	}
	s := lidStateOf(tk)
	if s.rrSlice != c.params.Timeslice {
		t.Fatalf("fresh quantum = %v, want %v", s.rrSlice, c.params.Timeslice)
	}
	// Burn part of the quantum on CPU 0.
	rq0.Tick(tk)
	burned := s.rrSlice
	if burned >= c.params.Timeslice {
		t.Fatal("tick did not consume quantum")
	}
	// Re-pick on CPU 1: the old per-queue map knew nothing about this
	// task there, so it gets a full fresh quantum.
	rq1.Enqueue(tk, false)
	if got := rq1.PickNext(); got != tk {
		t.Fatal("pick on CPU 1 failed")
	}
	if s.rrSlice != c.params.Timeslice {
		t.Fatalf("cross-queue quantum = %v, want fresh %v", s.rrSlice, c.params.Timeslice)
	}
	_ = k
}

// TestHPCElideTicksMatchesTicks pins the HPC class's TickHorizon contract:
// within a TickNoops bound, ElideTicks(t, n) leaves the same RR quantum as
// n Tick calls — including the empty-queue case, where the quantum drifts
// negative — for n up to the longest park the kernel arms (1024 ticks).
func TestHPCElideTicksMatchesTicks(t *testing.T) {
	for _, disc := range []Discipline{DisciplineRR, DisciplineFIFO} {
		for _, queued := range []bool{false, true} {
			for _, n := range []int{1, 2, 3, 17, 100, 1024} {
				name := fmt.Sprintf("disc=%d queued=%v n=%d", disc, queued, n)
				state := func() (*hpcRQ, *sched.Task) {
					k, c := newHPCKernel(t, Config{Discipline: disc})
					rq := c.rqs[0]
					if queued {
						rq.Enqueue(ringTask("q"), false)
					}
					cur := ringTask("cur")
					slice := 3*k.Opts.TickPeriod + 1 // drifts negative when nothing is queued
					if queued {
						slice += sim.Time(n) * k.Opts.TickPeriod
					}
					rq.rrStateFor(cur).rrSlice = slice
					return rq, cur
				}
				ticked, a := state()
				elided, b := state()
				if h := ticked.TickNoops(a); h < n {
					t.Fatalf("%s: TickNoops = %d", name, h)
				}
				for range n {
					ticked.Tick(a)
				}
				elided.ElideTicks(b, n)
				if qa, qb := lidStateOf(a).rrSlice, lidStateOf(b).rrSlice; qa != qb {
					t.Fatalf("%s: ticked quantum %d, elided %d", name, qa, qb)
				}
			}
		}
	}
}
