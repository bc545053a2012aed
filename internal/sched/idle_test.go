package sched

import (
	"testing"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// TestIdlePolicyRunsLast: a SCHED_IDLE task only progresses while no
// higher class wants the CPU.
func TestIdlePolicyRunsLast(t *testing.T) {
	_, k := newTestKernel(1)
	idler := k.AddProcess(TaskSpec{Name: "idler", Policy: PolicyIdle, Affinity: pin(0)},
		func(env *Env) {
			env.Compute(5 * sim.Millisecond)
		})
	hog := k.AddProcess(TaskSpec{Name: "hog", Policy: PolicyNormal, Affinity: pin(0)},
		func(env *Env) {
			env.Compute(30 * sim.Millisecond)
		})
	k.Watch(idler)
	k.Watch(hog)
	k.RunUntilWatchedExit(sim.Second)
	if idler.ExitedAt <= hog.ExitedAt {
		t.Fatalf("idle task (%v) must finish after the normal task (%v)",
			idler.ExitedAt, hog.ExitedAt)
	}
	// The idle task never preempted the hog: the hog's exec time is one
	// uninterrupted run.
	want := sim.Time(float64(30*sim.Millisecond) / pm.IdleSibling)
	approx(t, "hog finish", hog.ExitedAt, want, 0.02)
}

// TestIdleClassQueueing exercises the idle class's queue discipline with
// several idle tasks.
func TestIdleClassQueueing(t *testing.T) {
	_, k := newTestKernel(1)
	var order []int
	var tasks []*Task
	for i := 0; i < 3; i++ {
		i := i
		task := k.AddProcess(TaskSpec{Name: "bg", Policy: PolicyIdle, Affinity: pin(0)},
			func(env *Env) {
				env.Compute(5 * sim.Millisecond)
				order = append(order, i)
			})
		k.Watch(task)
		tasks = append(tasks, task)
	}
	k.RunUntilWatchedExit(sim.Second)
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("idle FIFO broken: %v", order)
		}
	}
	_ = tasks
}

// TestIdleClassStealAndWake: idle tasks migrate to idle CPUs and survive
// sleep/wake cycles.
func TestIdleClassStealAndWake(t *testing.T) {
	_, k := newTestKernel(1)
	var tasks []*Task
	for i := 0; i < 4; i++ {
		task := k.AddProcess(TaskSpec{Name: "bg", Policy: PolicyIdle},
			func(env *Env) {
				for j := 0; j < 3; j++ {
					env.Compute(4 * sim.Millisecond)
					env.Sleep(sim.Millisecond)
				}
			})
		k.Watch(task)
		tasks = append(tasks, task)
	}
	end := k.RunUntilWatchedExit(sim.Second)
	if end >= sim.Second {
		t.Fatal("idle tasks starved with an otherwise empty machine")
	}
	cpus := map[int]bool{}
	for _, task := range tasks {
		cpus[task.CPU] = true
	}
	if len(cpus) < 2 {
		t.Fatalf("idle tasks never spread: %v", cpus)
	}
}

func TestSetNiceFromBody(t *testing.T) {
	_, k := newTestKernel(1)
	stop := false
	greedy := k.AddProcess(TaskSpec{Name: "greedy", Policy: PolicyNormal, Affinity: pin(0)},
		func(env *Env) {
			env.SetNice(-10)
			for !stop {
				env.Compute(2 * sim.Millisecond)
			}
		})
	meek := k.AddProcess(TaskSpec{Name: "meek", Policy: PolicyNormal, Affinity: pin(0)},
		func(env *Env) {
			env.SetNice(10)
			for !stop {
				env.Compute(2 * sim.Millisecond)
			}
		})
	e := k.Engine
	e.Schedule(300*sim.Millisecond, func() { stop = true; e.Stop() })
	e.Run(400 * sim.Millisecond)
	if greedy.Nice != -10 || meek.Nice != 10 {
		t.Fatalf("nice not applied: %d / %d", greedy.Nice, meek.Nice)
	}
	if float64(greedy.SumExec) < 3*float64(meek.SumExec) {
		t.Fatalf("nice weighting ineffective: %v vs %v", greedy.SumExec, meek.SumExec)
	}
}

func TestSetHWPrioFromBody(t *testing.T) {
	_, k := newTestKernel(1)
	task := k.AddProcess(TaskSpec{Name: "self", Policy: PolicyNormal, Affinity: pin(0)},
		func(env *Env) {
			env.SetHWPrio(power5.PrioMediumHigh)
			env.Compute(sim.Millisecond)
		})
	k.Watch(task)
	k.RunUntilWatchedExit(sim.Second)
	if task.HWPrio != power5.PrioMediumHigh {
		t.Fatalf("HWPrio = %v", task.HWPrio)
	}
}

func TestSetHWPrioInvalidPanics(t *testing.T) {
	// The validation fires inside the body, which runs up to its first
	// request during AddProcess, so the panic surfaces there.
	_, k := newTestKernel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid SetHWPrio did not panic")
		}
	}()
	k.AddProcess(TaskSpec{Name: "bad", Policy: PolicyNormal},
		func(env *Env) {
			env.SetHWPrio(power5.Priority(9))
		})
}

func TestEnvArgumentValidation(t *testing.T) {
	for name, body := range map[string]func(*Env){
		"negative compute": func(env *Env) { env.Compute(-1) },
		"negative sleep":   func(env *Env) { env.Sleep(-1) },
	} {
		func() {
			_, k := newTestKernel(1)
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			k.AddProcess(TaskSpec{Name: name, Policy: PolicyNormal}, body)
		}()
	}
}

func TestRegisterClassBeforeErrors(t *testing.T) {
	_, k := newTestKernel(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown class name did not panic")
			}
		}()
		k.RegisterClassBefore("nonexistent", newIdleClass())
	}()
	k.AddProcess(TaskSpec{Name: "t", Policy: PolicyNormal}, func(env *Env) {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("late registration did not panic")
			}
		}()
		k.RegisterClassBefore("fair", newIdleClass())
	}()
}

func TestKernelAccessors(t *testing.T) {
	_, k := newTestKernel(1)
	task := k.AddProcess(TaskSpec{Name: "x", Policy: PolicyNormal}, func(env *Env) {
		env.Compute(sim.Millisecond)
	})
	if len(k.Tasks()) == 0 || k.Tasks()[0] != task {
		t.Fatal("Tasks() broken")
	}
	if k.ClassFor(PolicyIdle).Name() != "idle" {
		t.Fatal("ClassFor(PolicyIdle) wrong")
	}
	if task.String() == "" || task.Class() == nil {
		t.Fatal("accessors broken")
	}
	k.Watch(task)
	k.RunUntilWatchedExit(sim.Second)
	if !task.Exited() {
		t.Fatal("task did not run")
	}
}

func TestSetSchedulerSleepingTask(t *testing.T) {
	_, k := newTestKernel(1)
	task := k.AddProcess(TaskSpec{Name: "s", Policy: PolicyNormal}, func(env *Env) {
		env.Sleep(20 * sim.Millisecond)
		env.Compute(5 * sim.Millisecond)
	})
	k.Watch(task)
	k.Engine.Schedule(10*sim.Millisecond, func() {
		k.SetScheduler(task, PolicyFIFO, 30) // switch while sleeping
	})
	k.RunUntilWatchedExit(sim.Second)
	if task.Policy() != PolicyFIFO || task.Class().Name() != "rt" {
		t.Fatalf("policy switch on sleeping task failed: %v", task.Policy())
	}
}

// TestIdleBalanceNegativeCache: a cache-hot daemon queued behind a running
// rank must not force repeated full busiest-scans — the failed pass is
// cached until a queue changes or the candidate cools — and the steal must
// still happen at exactly the instant the daemon turns cold, as an
// uncached scan would have done.
func TestIdleBalanceNegativeCache(t *testing.T) {
	e, k := newTestKernel(1)
	// CPU1 frees up early (~0.35 ms at SMT speed); the others stay busy.
	burst := []sim.Time{50 * sim.Millisecond, 200 * sim.Microsecond,
		50 * sim.Millisecond, 50 * sim.Millisecond}
	for cpu := 0; cpu < 4; cpu++ {
		cpu := cpu
		h := k.AddProcess(TaskSpec{Name: "hog", Policy: PolicyNormal, Affinity: pin(cpu)},
			func(env *Env) { env.Compute(burst[cpu]) })
		k.Watch(h)
	}
	var daemon *Task
	spawnAt := 100 * sim.Microsecond
	e.Schedule(spawnAt, func() {
		// All four CPUs run a hog, so the unpinned daemon queues behind the
		// (lowest-numbered) running rank on CPU0, cache-hot from now.
		daemon = k.AddProcess(TaskSpec{Name: "daemon", Policy: PolicyNormal},
			func(env *Env) { env.Compute(1 * sim.Millisecond) })
		k.Watch(daemon)
	})
	coldAt := spawnAt + k.Opts.MigrationCost
	e.Schedule(coldAt-500*sim.Microsecond, func() {
		if daemon.CPU != 0 || daemon.SumExec != 0 {
			t.Errorf("daemon ran early: cpu=%d exec=%v", daemon.CPU, daemon.SumExec)
		}
		rq1 := k.RQ(1) // idle since its hog exited, pull attempts failing
		if !rq1.lbFailed {
			t.Error("failed pull attempt not cached")
		}
		if rq1.lbFailGen != k.queueGen {
			t.Errorf("cache generation %d != queue generation %d (scans would rerun)",
				rq1.lbFailGen, k.queueGen)
		}
		if rq1.lbRetryAt != coldAt {
			t.Errorf("retry time %v, want the daemon's cool-off %v", rq1.lbRetryAt, coldAt)
		}
	})
	k.RunUntilWatchedExit(sim.Second)
	if daemon.Migrations < 1 {
		t.Fatalf("daemon was never stolen (migrations=%d)", daemon.Migrations)
	}
	// Stolen at the first idle balance after cooling (~2.25 ms), the 1 ms
	// burst ends far before CPU0's CFS slice would first have run it
	// (~10 ms). A missed steal fails this bound.
	if daemon.ExitedAt > 9*sim.Millisecond {
		t.Fatalf("daemon exited at %v: steal after cool-off did not happen", daemon.ExitedAt)
	}
}

// TestIdleBalanceCachePinnedDaemon: while the only queued task is pinned
// to another CPU, every Steal fails on affinity, so no idle CPU runs a
// steal scan for it at all (not even once, to fill the negative-result
// cache), and the daemon never migrates. Its enqueue and dequeue — and the
// context switches around them — leave idle CPU1's parked tick where it
// was: each wake is reviewed when the instant ends and keeps the park,
// where a wake once re-armed the tick on its grid to fire and re-park.
func TestIdleBalanceCachePinnedDaemon(t *testing.T) {
	e, k := newTestKernel(1)
	hog := k.AddProcess(TaskSpec{Name: "hog", Policy: PolicyNormal, Affinity: pin(0)},
		func(env *Env) { env.Compute(30 * sim.Millisecond) })
	k.Watch(hog)
	// CPU2 goes idle while the daemon is queued: its balance pass finds
	// only the pinned daemon.
	short := k.AddProcess(TaskSpec{Name: "short", Policy: PolicyNormal, Affinity: pin(2)},
		func(env *Env) { env.Compute(3 * sim.Millisecond) })
	k.Watch(short)
	rq1 := k.RQ(1)
	var daemon *Task
	var parkAt sim.Time
	// Off CPU1's grid (250 µs + n ms), after its first tick parked.
	spawnAt := 3100 * sim.Microsecond
	e.Schedule(spawnAt, func() {
		if !rq1.parked() {
			t.Fatal("CPU1's tick is not parked before the daemon spawns")
		}
		parkAt = rq1.tickEv.At()
		daemon = k.AddProcess(TaskSpec{Name: "pinned", Policy: PolicyNormal, Affinity: pin(0)},
			func(env *Env) { env.Compute(sim.Millisecond) })
		k.Watch(daemon)
	})
	var queued, ran bool
	var probe func()
	probe = func() {
		switch daemon.state {
		case StateRunnable:
			queued = true
		case StateRunning, StateExited:
			ran = true
		}
		if !rq1.parked() || rq1.tickEv.At() != parkAt {
			t.Fatalf("at %v CPU1's tick parked=%v at %v, want parked at %v",
				e.Now(), rq1.parked(), rq1.tickEv.At(), parkAt)
		}
		if st := k.Stats(); st.StealScans != 0 || st.StealCacheSkips != 0 {
			t.Fatalf("at %v: %d steal scans, %d cache skips with only pinned tasks queued",
				e.Now(), st.StealScans, st.StealCacheSkips)
		}
		if !daemon.Exited() {
			e.After(100*sim.Microsecond, probe)
		}
	}
	e.Schedule(spawnAt+1, probe)
	k.RunUntilWatchedExit(sim.Second)
	if !queued || !ran || !daemon.Exited() {
		t.Fatalf("daemon queued=%v ran=%v exited=%v: the probes did not span its queueing",
			queued, ran, daemon.Exited())
	}
	if short.ExitedAt <= spawnAt || short.ExitedAt >= daemon.ExitedAt {
		t.Fatalf("short exited at %v, not while the daemon (%v–%v) was queued",
			short.ExitedAt, spawnAt, daemon.ExitedAt)
	}
	st := k.Stats()
	if st.StealPinnedSkips == 0 {
		t.Error("CPU2's balance pass with only the daemon queued was not counted as a pinned skip")
	}
	if st.StealScans != 0 {
		t.Errorf("%d steal scans ran; every queued task was pinned", st.StealScans)
	}
	if daemon.Migrations != 0 {
		t.Errorf("pinned daemon migrated %d times", daemon.Migrations)
	}
}

func time1ms() sim.Time { return sim.Millisecond }
