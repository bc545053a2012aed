package sched

import (
	"math"
	"testing"

	"hpcsched/internal/sim"
)

// A task's settled SumWork is the nominal compute it requested — wall time
// stretches with context speed, completed work does not.
func TestSumWorkEqualsRequestedCompute(t *testing.T) {
	_, k := newTestKernel(1)
	const want = 100 * sim.Millisecond
	task := k.AddProcess(TaskSpec{Name: "solo", Policy: PolicyNormal}, func(env *Env) {
		env.Compute(30 * sim.Millisecond)
		env.Sleep(10 * sim.Millisecond)
		env.Compute(70 * sim.Millisecond)
	})
	k.Watch(task)
	k.RunUntilWatchedExit(10 * sim.Second)
	if !task.Exited() {
		t.Fatal("task did not finish")
	}
	if got := task.SumWork; math.Abs(got-float64(want)) > float64(sim.Millisecond) {
		t.Fatalf("SumWork = %v, want ≈%v", sim.Time(got), want)
	}
	// Wall time exceeded the nominal work (no context runs above speed 1).
	if task.SumExec < sim.Time(task.SumWork) {
		t.Fatalf("SumExec %v < SumWork %v", task.SumExec, sim.Time(task.SumWork))
	}
}

// WorkDone is a pure read: sampling it from engine events mid-burst must
// be monotone, bounded by the requested work, and exact (equal to the
// settled SumWork) once the task exits — even when SMT contention changes
// the running speed under the in-flight burst plan.
func TestWorkDoneMonotoneAndSettled(t *testing.T) {
	e, k := newTestKernel(1)
	mk := func(name string, cpu int, work sim.Time) *Task {
		return k.AddProcess(TaskSpec{Name: name, Policy: PolicyNormal, Affinity: pin(cpu)},
			func(env *Env) { env.Compute(work) })
	}
	a := mk("a", 0, 80*sim.Millisecond)
	b := mk("b", 1, 20*sim.Millisecond) // same core: SMT contention, then a speeds up
	k.Watch(a)
	k.Watch(b)

	var samples []float64
	var probe *sim.Event
	probe = e.Schedule(sim.Millisecond, func() {
		samples = append(samples, a.WorkDone(e.Now()))
		e.Reschedule(probe, e.Now()+sim.Millisecond)
	})
	k.RunUntilWatchedExit(10 * sim.Second)
	e.Cancel(probe)

	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1] {
			t.Fatalf("WorkDone regressed: sample %d %v < %v", i, samples[i], samples[i-1])
		}
	}
	last := samples[len(samples)-1]
	if last > float64(80*sim.Millisecond)+1 {
		t.Fatalf("WorkDone overshot the requested work: %v", last)
	}
	if got := a.WorkDone(e.Now()); got != a.SumWork {
		t.Fatalf("exited task WorkDone %v != SumWork %v", got, a.SumWork)
	}
	if math.Abs(a.SumWork-float64(80*sim.Millisecond)) > float64(sim.Millisecond) {
		t.Fatalf("SumWork = %v, want ≈80ms", sim.Time(a.SumWork))
	}
}
