package sched

import (
	"fmt"
	"testing"
	"testing/quick"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// ticklessFingerprintMix runs a randomized task mix — compute bursts,
// sleeps, blocks woken by a peer's deferred posts, random policies and
// affinities, long-idle stretches that arm the SMT-domain active balance —
// and renders every externally observable per-task and per-CPU quantity
// into a string. idle and busy select which tick-elision machinery is
// enabled. pairs widens the mix, drawing more only where it is set: a
// third of the tasks may run on exactly two CPUs — migratable, but a Steal
// for any other CPU fails on affinity — every task draws a nice level, and
// one noise-style daemon is pinned to each CPU (short bursts between
// sleeps, forever; Shutdown ends them). Every run also checks the tick
// state invariants after every event (checkTickStates).
func ticklessFingerprintMix(t *testing.T, seed uint64, idle, busy, pairs bool) string {
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
		switch rng.Intn(3) {
		case 0:
			aff = 1 << uint(rng.Intn(4))
		case 1:
			if pairs {
				a := rng.Intn(4)
				b := (a + 1 + rng.Intn(3)) % 4
				aff = 1<<uint(a) | 1<<uint(b)
			}
		}
		nice := 0
		if pairs {
			nice = rng.Intn(16) - 5
		}
		phases := rng.Intn(5) + 1
		task := k.AddProcess(TaskSpec{Name: fmt.Sprintf("t%d", i), Policy: policy,
			RTPrio: rng.Intn(50) + 1, Affinity: aff, Nice: nice}, func(env *Env) {
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
	if pairs {
		drng := sim.NewRNG(seed ^ 0xd43)
		for cpu := 0; cpu < k.NumCPUs(); cpu++ {
			sleepers = append(sleepers, k.AddProcess(TaskSpec{Name: fmt.Sprintf("daemon%d", cpu),
				Policy: PolicyNormal, Affinity: 1 << uint(cpu)}, func(env *Env) {
				for {
					env.Compute(sim.Time(drng.Int63n(int64(300*sim.Microsecond)) + 1))
					env.Sleep(sim.Time(drng.Int63n(int64(12*sim.Millisecond)) + 1))
				}
			}))
		}
	}

	checkTickStates(t, k)
	k.RunUntilWatchedExit(2 * sim.Second)
	k.Shutdown()
	return fingerprintOf(k, append(tasks, sleepers...))
}

// checkTickStates makes k's engine check the tick state machine after
// every event: an idle-parked tick has no running task and a busy-parked
// one has one; an online CPU has a tick event and an offline one none;
// and no tick stays reviewed into a later instant — the review count
// grows, at the first event of each instant, by exactly the number of
// ticks left reviewed at the last event before it, and within an instant
// not at all. It only reads state: no RNG draw, no event.
func checkTickStates(t *testing.T, k *Kernel) {
	lastAt := sim.Time(-1)
	var reviewed, reviews int64
	k.Engine.SetInterrupt(1, func() bool {
		now := k.Now()
		n := k.stats.ReviewsKept + k.stats.ReviewsMoved + k.stats.ReviewsRearmed
		want := reviews
		if now != lastAt {
			want += reviewed
		}
		if n != want {
			t.Fatalf("at %v: %d reviews, want %d (%d ticks were left reviewed at %v)",
				now, n, want, reviewed, lastAt)
		}
		lastAt, reviews, reviewed = now, n, 0
		for _, rq := range k.rqs {
			switch {
			case rq.tick == tickIdleParked && rq.current != nil,
				rq.tick == tickBusyParked && rq.current == nil:
				t.Fatalf("at %v CPU%d: tick state %d with running task %v", now, rq.CPU, rq.tick, rq.current)
			case rq.offline != (rq.tickEv == nil):
				t.Fatalf("at %v CPU%d: offline %v with tick event %v", now, rq.CPU, rq.offline, rq.tickEv != nil)
			case rq.tick == tickReviewed:
				reviewed++
			}
		}
		return false
	})
}

// fingerprintOf renders every externally observable per-task and per-CPU
// quantity of a finished run into a string.
func fingerprintOf(k *Kernel, tasks []*Task) string {
	out := fmt.Sprintf("end=%d mig=%d/%d/%d\n", k.Now(), k.MigWake, k.MigSteal, k.MigActive)
	for _, task := range tasks {
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
	f := func(seed uint64) bool { return ticklessEquivalent(t, seed, false) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ticklessEquivalent reports whether every tickless configuration of
// ticklessFingerprintMix at seed matches the always-ticking run, logging
// the first divergence.
func ticklessEquivalent(t *testing.T, seed uint64, pairs bool) bool {
	ticking := ticklessFingerprintMix(t, seed, false, false, pairs)
	for _, c := range []struct {
		name       string
		idle, busy bool
	}{
		{"idle", true, false},
		{"busy", false, true},
		{"idle+busy", true, true},
	} {
		if got := ticklessFingerprintMix(t, seed, c.idle, c.busy, pairs); got != ticking {
			t.Logf("seed %d diverged under tickless %s:\n--- tickless ---\n%s--- ticking ---\n%s",
				seed, c.name, got, ticking)
			return false
		}
	}
	return true
}

// TestTicklessPairMaskEquivalence is TestTicklessTimelineEquivalence over
// ticklessFingerprintMix's wider mix — two-CPU affinity masks, nice levels
// and per-CPU pinned daemons: steal scans that fail on affinity for a
// migratable task, stretches where only pinned tasks are queued (no scan
// runs, and a queue change wakes only its own core's idle parks), and
// woken ticks reviewed at the end of the instant, CFS ones with a finite
// horizon counted between ticks, must all leave every observable
// bit-identical to firing every tick.
func TestTicklessPairMaskEquivalence(t *testing.T) {
	f := func(seed uint64) bool { return ticklessEquivalent(t, seed, true) }
	// Fixed seeds whose timelines diverge if a pinned task's queue change
	// wakes only its own core while a migratable task is queued: the
	// change invalidates every negative-result cache, and the rescan can
	// succeed, since the busiest queue it picks may move. queueChanged
	// must wake every idle park there.
	for _, seed := range []uint64{6, 33, 54, 107} {
		if !f(seed) {
			t.Fatalf("fixed seed %d diverged", seed)
		}
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
