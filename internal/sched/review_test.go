package sched

import (
	"fmt"
	"strings"
	"testing"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// reviewRun builds a 4-CPU kernel, tickless unless ticking, with a 20 ms
// task pinned to CPU0 so CPUs 1–3 sit idle with parked ticks; at lets the
// caller act on the kernel at chosen instants. It returns the fingerprint
// of the finished run, over every task created, and checks the tick state
// invariants after every event.
func reviewRun(t *testing.T, ticking bool, at func(e *sim.Engine, k *Kernel)) string {
	t.Helper()
	e := sim.NewEngine(5)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	opts := DefaultOptions()
	opts.NoTicklessIdle = ticking
	opts.NoTicklessBusy = ticking
	k := NewKernel(e, chip, opts)
	solo := k.AddProcess(TaskSpec{Name: "solo", Policy: PolicyNormal, Affinity: pin(0)},
		func(env *Env) { env.Compute(20 * sim.Millisecond) })
	k.Watch(solo)
	at(e, k)
	checkTickStates(t, k)
	k.RunUntilWatchedExit(sim.Second)
	k.Shutdown()
	return fingerprintOf(k, k.Tasks())
}

// TestWakeOnGridRearmsAtOnce: a wake exactly on a CPU's grid instant T
// keeps the immediate path — no review — because the tick's order among
// T's events matters: the tick is re-armed at T when the waking event was
// armed before T−period (the never-parked tick at T fires after it), and
// at T+period when it was armed later (that tick already fired, a no-op).
// The same instant's wakes off other CPUs' grids wait for the review. The
// run matches the always-ticking one.
func TestWakeOnGridRearmsAtOnce(t *testing.T) {
	const T = 5*sim.Millisecond + 500*sim.Microsecond // on CPU2's grid
	for _, c := range []struct {
		name    string
		armedAt sim.Time // when the waking event is scheduled
		want    sim.Time // CPU2's re-armed tick
	}{
		{"tick-after", 0, T},
		{"tick-fired", T - 500*sim.Microsecond, T + sim.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			spawn := func(check bool) func(e *sim.Engine, k *Kernel) {
				return func(e *sim.Engine, k *Kernel) {
					e.Schedule(c.armedAt, func() {
						e.Schedule(T, func() {
							if check && !k.RQ(2).parked() {
								t.Fatal("CPU2's tick is not parked before the wake")
							}
							k.Watch(k.AddProcess(TaskSpec{Name: "late", Policy: PolicyNormal},
								func(env *Env) { env.Compute(2 * sim.Millisecond) }))
							if !check {
								return
							}
							rq2 := k.RQ(2)
							if rq2.tick != tickArmed || rq2.tickEv.At() != c.want {
								t.Errorf("CPU2 on its grid: tick state %d at %v, want re-armed at %v",
									rq2.tick, rq2.tickEv.At(), c.want)
							}
							for _, cpu := range []int{1, 3} {
								if k.RQ(cpu).tick != tickReviewed {
									t.Errorf("CPU%d, woken off its grid, is not marked for review", cpu)
								}
							}
						})
					})
				}
			}
			want := reviewRun(t, true, spawn(false))
			if got := reviewRun(t, false, spawn(true)); got != want {
				t.Fatalf("tickless run diverges:\n--- tickless ---\n%s--- ticking ---\n%s", got, want)
			}
		})
	}
}

// TestWakeSameInstantAsOffline: a tick woken off its grid in the same
// instant that OfflineCore removes its CPU has no tick left to review:
// OfflineCore clears its mark, in either order of the two, and the run
// matches the always-ticking one.
func TestWakeSameInstantAsOffline(t *testing.T) {
	const X = 5*sim.Millisecond + 300*sim.Microsecond // on no CPU's grid
	for _, wakeFirst := range []bool{true, false} {
		name := "offline-then-wake"
		if wakeFirst {
			name = "wake-then-offline"
		}
		t.Run(name, func(t *testing.T) {
			act := func(check bool) func(e *sim.Engine, k *Kernel) {
				return func(e *sim.Engine, k *Kernel) {
					e.Schedule(X, func() {
						if check {
							for cpu := 2; cpu < 4; cpu++ {
								if !k.RQ(cpu).parked() {
									t.Fatalf("CPU%d's tick is not parked before the instant", cpu)
								}
							}
						}
						wake := func() {
							k.Watch(k.AddProcess(TaskSpec{Name: "late", Policy: PolicyNormal},
								func(env *Env) { env.Compute(2 * sim.Millisecond) }))
						}
						if wakeFirst {
							wake()
							if check && k.RQ(2).tick != tickReviewed {
								t.Error("CPU2, woken off its grid, is not marked for review")
							}
						}
						k.OfflineCore(1)
						if !wakeFirst {
							wake()
						}
					})
					e.Schedule(X+1, func() {
						for cpu := 2; cpu < 4; cpu++ {
							rq := k.RQ(cpu)
							if rq.tick != tickArmed || rq.tickEv != nil {
								t.Errorf("offline CPU%d after the instant: tick state %d, event %v",
									cpu, rq.tick, rq.tickEv != nil)
							}
						}
						if rq1 := k.RQ(1); rq1.tick == tickReviewed ||
							!rq1.parked() && rq1.tickEv.At() != rq1.gridCeil(X) {
							t.Error("CPU1's tick was neither parked nor re-armed by the review")
						}
					})
				}
			}
			want := reviewRun(t, true, act(false))
			if got := reviewRun(t, false, act(true)); got != want {
				t.Fatalf("tickless run diverges:\n--- tickless ---\n%s--- ticking ---\n%s", got, want)
			}
		})
	}
}

// runningLog records every dispatch: the instant, the task and the CPU.
type runningLog struct{ lines []string }

func (l *runningLog) TaskState(now sim.Time, t *Task, s State, cpu int) {
	if s == StateRunning {
		l.lines = append(l.lines, fmt.Sprintf("%d %s cpu%d", now, t.Name, cpu))
	}
}

func (l *runningLog) TaskHWPrio(sim.Time, *Task, int) {}

// TestDoublyBusyCoreWakesIdleParks: a dispatch that makes a core doubly
// busy creates a donor for the SMT-domain active balance, which can lower
// the horizon of an idle park on any other core. Core 1 idles for 300 ms,
// its ticks parked with every active-balance gate open but the donor one,
// when a task pinned to CPU1 starts beside the task running on CPU0. Core
// 1 must pull CPU0's task at the same instant as a run whose idle ticks
// all fire. Waking only the dispatching CPU's own park would leave core
// 1's ticks parked until their cap, past the whole run.
func TestDoublyBusyCoreWakesIdleParks(t *testing.T) {
	const start = 300*sim.Millisecond + 250*sim.Microsecond // on no CPU's grid
	run := func(ticking bool) (string, string, int64) {
		e := sim.NewEngine(3)
		opts := DefaultOptions()
		opts.NoTicklessIdle = ticking
		k := NewKernel(e, power5.NewChip(2, power5.NewCalibratedPerfModel()), opts)
		log := &runningLog{}
		k.SetTracer(log)
		a := k.AddProcess(TaskSpec{Name: "a", Policy: PolicyNormal},
			func(env *Env) { env.Compute(600 * sim.Millisecond) })
		k.Watch(a)
		e.Schedule(start, func() {
			if !ticking {
				for cpu := 2; cpu < 4; cpu++ {
					if k.RQ(cpu).tick != tickIdleParked {
						t.Fatalf("CPU%d's tick is not idle-parked before the dispatch", cpu)
					}
				}
			}
			k.Watch(k.AddProcess(TaskSpec{Name: "b", Policy: PolicyNormal, Affinity: pin(1)},
				func(env *Env) { env.Compute(300 * sim.Millisecond) }))
		})
		checkTickStates(t, k)
		k.RunUntilWatchedExit(10 * sim.Second)
		k.Shutdown()
		return fingerprintOf(k, k.Tasks()), strings.Join(log.lines, "\n"), k.MigActive
	}
	wantPrint, wantLog, wantMig := run(true)
	if wantMig != 1 || !strings.Contains(wantLog, "a cpu2") {
		t.Fatalf("ticking run: %d active migrations, dispatches:\n%s", wantMig, wantLog)
	}
	gotPrint, gotLog, gotMig := run(false)
	if gotMig != wantMig || gotLog != wantLog {
		t.Errorf("tickless run: %d active migrations, dispatches:\n%s\nticking run: %d, dispatches:\n%s",
			gotMig, gotLog, wantMig, wantLog)
	}
	if gotPrint != wantPrint {
		t.Errorf("tickless run diverges:\n--- tickless ---\n%s--- ticking ---\n%s", gotPrint, wantPrint)
	}
}
