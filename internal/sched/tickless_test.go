package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// ticklessFingerprint runs a randomized task mix — compute bursts, sleeps,
// blocks woken by a peer's deferred posts, random policies and affinities,
// long-idle stretches that arm the SMT-domain active balance — and renders
// every externally observable per-task and per-CPU quantity into a string.
// idle and busy select which tick-elision machinery is enabled.
func ticklessFingerprint(seed uint64, idle, busy bool) string {
	e := sim.NewEngine(seed)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	opts := DefaultOptions()
	opts.NoTicklessIdle = !idle
	opts.NoTicklessBusy = !busy
	k := NewKernel(e, chip, opts)
	rng := sim.NewRNG(seed ^ 0x5eed)

	count := int(rng.Intn(6)) + 3
	var tasks []*Task
	var sleepers []*Task
	for i := 0; i < count; i++ {
		policy := []Policy{PolicyNormal, PolicyNormal, PolicyBatch, PolicyFIFO, PolicyRR}[rng.Intn(5)]
		aff := uint64(0)
		if rng.Intn(3) == 0 {
			aff = 1 << uint(rng.Intn(4))
		}
		phases := rng.Intn(5) + 1
		task := k.AddProcess(TaskSpec{Name: fmt.Sprintf("t%d", i), Policy: policy,
			RTPrio: rng.Intn(50) + 1, Affinity: aff}, func(env *Env) {
			for j := 0; j < phases; j++ {
				switch rng.Intn(5) {
				case 0:
					env.Compute(sim.Time(rng.Int63n(int64(20*sim.Millisecond)) + 1))
				case 1:
					// Long sleep: leaves its CPU idle for many ticks, the
					// tickless-idle park window.
					env.Sleep(sim.Time(rng.Int63n(int64(40*sim.Millisecond)) + 1))
				case 2:
					env.DeferCompute(sim.Time(rng.Int63n(int64(4*sim.Millisecond)) + 1))
					env.Sleep(sim.Time(rng.Int63n(int64(8*sim.Millisecond)) + 1))
				case 3:
					env.Compute(sim.Time(rng.Int63n(int64(8*sim.Millisecond)) + 1))
					env.Yield()
				case 4:
					// Long burst: keeps its CPU busy for many ticks, the
					// tickless-busy (NO_HZ_FULL) park window — long enough to
					// cross CFS slice expiries and RR quantum refills when
					// the queue is contended.
					env.Compute(sim.Time(rng.Int63n(int64(150*sim.Millisecond)) + 1))
				}
			}
		})
		k.Watch(task)
		tasks = append(tasks, task)
	}
	// A blocked task woken late: exercises wakeups landing on parked CPUs.
	blocked := k.AddProcess(TaskSpec{Name: "blocked", Policy: PolicyNormal},
		func(env *Env) {
			env.Block("test")
			env.Compute(3 * sim.Millisecond)
		})
	k.Watch(blocked)
	sleepers = append(sleepers, blocked)
	wakeAt := sim.Time(rng.Int63n(int64(60*sim.Millisecond)) + int64(30*sim.Millisecond))
	// Long bursts can keep "blocked" queued past wakeAt before it ever
	// reaches its Block; retry until it has actually blocked. The retry
	// schedule is a pure function of the (config-independent) timeline, so
	// it does not perturb the equivalence.
	var wake func()
	wake = func() {
		if blocked.state == StateSleeping {
			k.Wake(blocked)
			return
		}
		e.Schedule(e.Now()+5*sim.Millisecond, wake)
	}
	e.Schedule(wakeAt, wake)

	k.RunUntilWatchedExit(2 * sim.Second)
	k.Shutdown()

	out := fmt.Sprintf("end=%d mig=%d/%d/%d\n", e.Now(), k.MigWake, k.MigSteal, k.MigActive)
	for _, task := range append(tasks, sleepers...) {
		out += fmt.Sprintf("%s exit=%d exec=%d wait=%d sleep=%d mig=%d wake=%d/%d\n",
			task.Name, task.ExitedAt, task.SumExec, task.SumWait, task.SumSleep,
			task.Migrations, task.WakeupCount, task.WakeupLatSum)
	}
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		out += fmt.Sprintf("cpu%d cs=%d load=%v\n", cpu, k.RQ(cpu).ContextSwitches,
			k.RQ(cpu).loadAvg())
	}
	return out
}

// TestTicklessTimelineEquivalence is the tickless analogue of the PR 4
// pure-heap equivalence test: over randomized workloads, parking CPUs'
// ticks — over idle stretches, busy (NO_HZ_FULL) stretches, or both — must
// leave every observable — exit instants, exact accounting sums,
// migrations, context switches, wakeup latencies, even the final decayed
// load averages — bit-identical to firing every tick.
func TestTicklessTimelineEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		ticking := ticklessFingerprint(seed, false, false)
		for _, c := range []struct {
			name       string
			idle, busy bool
		}{
			{"idle", true, false},
			{"busy", false, true},
			{"idle+busy", true, true},
		} {
			if got := ticklessFingerprint(seed, c.idle, c.busy); got != ticking {
				t.Logf("seed %d diverged under tickless %s:\n--- tickless ---\n%s--- ticking ---\n%s",
					seed, c.name, got, ticking)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTicklessParksIdleTicks pins that the idle machinery actually engages:
// a workload with one long-running task and three idle CPUs must elide a
// substantial share of its tick instants, and the elision count must make
// the fired+elided sum match the always-ticking run exactly.
func TestTicklessParksIdleTicks(t *testing.T) {
	run := func(tickless bool) (fired uint64, elided int64) {
		e := sim.NewEngine(3)
		chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
		opts := DefaultOptions()
		opts.NoTicklessIdle = !tickless
		opts.NoTicklessBusy = true // isolate the idle machinery
		k := NewKernel(e, chip, opts)
		task := k.AddProcess(TaskSpec{Name: "solo", Policy: PolicyNormal, Affinity: pin(0)},
			func(env *Env) {
				for i := 0; i < 20; i++ {
					env.Compute(5 * sim.Millisecond)
					env.Sleep(5 * sim.Millisecond)
				}
			})
		k.Watch(task)
		k.RunUntilWatchedExit(sim.Second)
		defer k.Shutdown()
		return e.Stats().Fired, k.TicksElided()
	}
	fired, elided := run(true)
	firedAll, elidedAll := run(false)
	if elidedAll != 0 {
		t.Fatalf("fully ticking run still elided %d ticks", elidedAll)
	}
	if elided == 0 {
		t.Fatal("tickless idle never parked a tick on a mostly-idle machine")
	}
	if fired+uint64(elided) != firedAll {
		t.Fatalf("fired+elided = %d+%d = %d, want %d (the always-ticking event count)",
			fired, elided, fired+uint64(elided), firedAll)
	}
	if float64(elided) < 0.3*float64(firedAll) {
		t.Fatalf("only %d of %d tick instants elided on a machine with 3 idle CPUs",
			elided, firedAll)
	}
}

// TestTicklessParksBusyTicks is the NO_HZ_FULL counterpart: long
// uninterrupted compute bursts must have their per-tick bookkeeping elided
// — including across CFS slice expiries forced by a queued competitor —
// with the fired+elided invariant intact.
func TestTicklessParksBusyTicks(t *testing.T) {
	run := func(tickless bool) (fired uint64, elided int64) {
		e := sim.NewEngine(7)
		chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
		opts := DefaultOptions()
		opts.NoTicklessIdle = true // isolate the busy machinery
		opts.NoTicklessBusy = !tickless
		k := NewKernel(e, chip, opts)
		// Two CFS tasks pinned to one CPU: the horizon is finite (slice
		// expiry), so parks re-arm across acting ticks; a solo FIFO spinner
		// on another CPU parks at the cap.
		for i := 0; i < 2; i++ {
			task := k.AddProcess(TaskSpec{Name: fmt.Sprintf("cfs%d", i),
				Policy: PolicyNormal, Affinity: pin(1)}, func(env *Env) {
				env.Compute(300 * sim.Millisecond)
			})
			k.Watch(task)
		}
		spin := k.AddProcess(TaskSpec{Name: "spin", Policy: PolicyFIFO,
			RTPrio: 10, Affinity: pin(2)}, func(env *Env) {
			env.Compute(500 * sim.Millisecond)
		})
		k.Watch(spin)
		k.RunUntilWatchedExit(2 * sim.Second)
		defer k.Shutdown()
		return e.Stats().Fired, k.TicksElided()
	}
	fired, elided := run(true)
	firedAll, elidedAll := run(false)
	if elidedAll != 0 {
		t.Fatalf("fully ticking run still elided %d ticks", elidedAll)
	}
	if elided == 0 {
		t.Fatal("tickless busy never parked a tick under long compute bursts")
	}
	if fired+uint64(elided) != firedAll {
		t.Fatalf("fired+elided = %d+%d = %d, want %d (the always-ticking event count)",
			fired, elided, fired+uint64(elided), firedAll)
	}
	if float64(elided) < 0.3*float64(firedAll) {
		t.Fatalf("only %d of %d tick instants elided under saturating bursts",
			elided, firedAll)
	}
}
