package sched

import (
	"testing"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// allocKernel builds a kernel with two spinning tasks (compute/sleep
// loops, one per core) and drives it to a warm steady state: event pool
// primed, run-queue slices sized, channels in rhythm.
func allocKernel(t testing.TB) *Kernel {
	t.Helper()
	engine := sim.NewEngine(42)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	k := NewKernel(engine, chip, Options{})
	for i := 0; i < 4; i++ {
		k.AddProcess(TaskSpec{Name: "spin", Policy: PolicyNormal}, func(env *Env) {
			for {
				env.Compute(200 * sim.Microsecond)
				env.Sleep(50 * sim.Microsecond)
			}
		})
	}
	engine.Run(engine.Now() + 50*sim.Millisecond) // warm up
	t.Cleanup(k.Shutdown)
	return k
}

// TestSteadyStateAllocFree is the headline regression bound of the
// zero-allocation core: once warm, driving the full kernel — bursts,
// wakeups, ticks, CFS enqueue/dequeue, preemption checks — allocates
// (near) nothing per event.
func TestSteadyStateAllocFree(t *testing.T) {
	k := allocKernel(t)
	before := k.Engine.Stats()
	allocs := testing.AllocsPerRun(20, func() {
		k.Engine.Run(k.Engine.Now() + 10*sim.Millisecond)
	})
	after := k.Engine.Stats()
	events := float64(after.Fired-before.Fired) / 21 // AllocsPerRun runs fn 1+20 times
	if events < 100 {
		t.Fatalf("scenario too quiet to be meaningful: %.0f events/run", events)
	}
	perEvent := allocs / events
	if perEvent > 0.05 {
		t.Fatalf("steady state allocates %.4f objects/event (%.0f allocs over %.0f events), want ≤0.05",
			perEvent, allocs, events)
	}
}

// TestBusyElisionAllocFree bounds the slice-expiry (NO_HZ_FULL) path: a
// workload dominated by busy-parked stretches — finite CFS slice-expiry
// horizons on a contended CPU, a cap-length FIFO park, idle parks on the
// rest — must stay within 0.01 allocations per kernel event, counting each
// elided tick instant as an event (it replaces one). This is the alloc
// regression bound for maybeParkBusyTick + TickNoops + the settleStretch
// replay.
func TestBusyElisionAllocFree(t *testing.T) {
	engine := sim.NewEngine(11)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	k := NewKernel(engine, chip, Options{})
	// Two CFS tasks sharing CPU 1: every park ends at a slice expiry and
	// re-arms across the acting tick, the hot re-park cycle.
	for i := 0; i < 2; i++ {
		k.AddProcess(TaskSpec{Name: "busy", Policy: PolicyNormal, Affinity: pin(1)},
			func(env *Env) {
				for {
					env.Compute(30 * sim.Millisecond)
				}
			})
	}
	// A solo FIFO spinner on CPU 2: unbounded horizon, parks at the cap.
	k.AddProcess(TaskSpec{Name: "spin", Policy: PolicyFIFO, RTPrio: 10,
		Affinity: pin(2)}, func(env *Env) {
		for {
			env.Compute(100 * sim.Millisecond)
		}
	})
	engine.Run(engine.Now() + 100*sim.Millisecond) // warm up
	t.Cleanup(k.Shutdown)

	beforeFired := engine.Stats().Fired
	beforeElided := k.TicksElided()
	allocs := testing.AllocsPerRun(20, func() {
		engine.Run(engine.Now() + 40*sim.Millisecond)
	})
	elided := k.TicksElided() - beforeElided
	if elided == 0 {
		t.Fatal("busy-elision workload elided no ticks — the bound is not measuring the path")
	}
	events := (float64(engine.Stats().Fired-beforeFired) + float64(elided)) / 21
	if events < 100 {
		t.Fatalf("scenario too quiet to be meaningful: %.0f events/run", events)
	}
	perEvent := allocs / events
	if perEvent > 0.01 {
		t.Fatalf("busy-elision path allocates %.4f objects/event (%.0f allocs over %.0f events), want ≤0.01",
			perEvent, allocs, events)
	}
}

// TestKernelTickAllocFree bounds one full periodic tick (accounting,
// class Tick, load average) on a busy CPU.
func TestKernelTickAllocFree(t *testing.T) {
	k := allocKernel(t)
	allocs := testing.AllocsPerRun(100, func() {
		k.tick(0)
		k.tick(1)
	})
	if allocs > 1 {
		t.Fatalf("kernel tick allocates %.1f objects, want ≤1", allocs)
	}
}

// TestCFSEnqueueDequeueAllocFree bounds the CFS queue cycle: the queue's
// slice is presized, so a warm enqueue/dequeue pair allocates nothing.
func TestCFSEnqueueDequeueAllocFree(t *testing.T) {
	engine := sim.NewEngine(1)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	k := NewKernel(engine, chip, Options{})
	t.Cleanup(k.Shutdown)

	fair := k.ClassFor(PolicyNormal)
	crq := k.rqs[0].classRQ[k.classIndex(fair)]
	task := &Task{PID: 999, Name: "alloc-probe", CPU: 0, state: StateRunnable}
	k.setClass(task, fair)
	task.cfs.init(task)

	crq.Enqueue(task, false) // warm up
	crq.Dequeue(task)
	allocs := testing.AllocsPerRun(1000, func() {
		crq.Enqueue(task, false)
		crq.Dequeue(task)
	})
	if allocs > 1 {
		t.Fatalf("CFS enqueue/dequeue allocates %.1f objects, want ≤1", allocs)
	}
}

// TestWatchCoalesced verifies the watch bookkeeping after the map→bit
// coalescing: double Watch does not double count, and the engine stops
// exactly when the last watched task exits.
func TestWatchCoalesced(t *testing.T) {
	engine := sim.NewEngine(7)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	k := NewKernel(engine, chip, Options{})
	t.Cleanup(k.Shutdown)

	mk := func() *Task {
		return k.AddProcess(TaskSpec{Name: "w", Policy: PolicyNormal}, func(env *Env) {
			env.Compute(1 * sim.Millisecond)
		})
	}
	a, b := mk(), mk()
	k.Watch(a)
	k.Watch(a) // idempotent
	k.Watch(b)
	if k.watchLeft != 2 {
		t.Fatalf("watchLeft = %d after watching two tasks, want 2", k.watchLeft)
	}
	end := k.RunUntilWatchedExit(sim.MaxTime)
	if !a.Exited() || !b.Exited() {
		t.Fatal("watched tasks did not exit")
	}
	if k.watchLeft != 0 {
		t.Fatalf("watchLeft = %d after exits, want 0", k.watchLeft)
	}
	if end <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

// TestTasksReturnsCopy: mutating the returned slice must not corrupt
// kernel state (the aliasing bug this PR fixes).
func TestTasksReturnsCopy(t *testing.T) {
	engine := sim.NewEngine(7)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	k := NewKernel(engine, chip, Options{})
	t.Cleanup(k.Shutdown)

	task := k.AddProcess(TaskSpec{Name: "t", Policy: PolicyNormal}, func(env *Env) {
		env.Compute(sim.Microsecond)
	})
	got := k.Tasks()
	got[0] = nil
	if k.tasks[0] != task {
		t.Fatal("mutating Tasks() result corrupted kernel state")
	}
	cls := k.Classes()
	cls[0] = nil
	if k.classes[0] == nil {
		t.Fatal("mutating Classes() result corrupted kernel state")
	}
}

// TestCFSQueueCycleAllocFree pins the CFS queue's steady state at zero: the
// presized slice absorbs a warm enqueue/dequeue/pick cycle over a few
// tasks without growing.
func TestCFSQueueCycleAllocFree(t *testing.T) {
	k := NewKernel(sim.NewEngine(1), power5.NewChip(2, power5.NewCalibratedPerfModel()), Options{})
	t.Cleanup(k.Shutdown)
	rq := (&fairClass{}).NewRQ(k, 0).(*cfsRQ)
	tasks := make([]*Task, 4)
	for i := range tasks {
		tasks[i] = &Task{PID: i + 1, Nice: i - 2}
		tasks[i].cfs.init(tasks[i])
	}
	cycle := func() {
		for i, x := range tasks {
			x.SumExec += sim.Time(i+1) * sim.Millisecond
			rq.Enqueue(x, i%2 == 0)
		}
		rq.Dequeue(tasks[2])
		for rq.PickNext() != nil {
		}
	}
	cycle() // warm up
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("CFS enqueue/dequeue/pick cycle allocates %.1f objects, want 0", allocs)
	}
}
