package sched

import (
	"testing"

	"hpcsched/internal/sim"
)

func TestOfflineCoreMigratesRunningTasks(t *testing.T) {
	e, k := newTestKernel(1)
	var tasks []*Task
	for i := 0; i < 4; i++ {
		task := k.AddProcess(TaskSpec{Name: "w", Policy: PolicyNormal},
			func(env *Env) { env.Compute(200 * sim.Millisecond) })
		k.Watch(task)
		tasks = append(tasks, task)
	}
	e.Schedule(50*sim.Millisecond, func() { k.OfflineCore(1) })
	k.RunUntilWatchedExit(10 * sim.Second)
	for _, task := range tasks {
		if !task.Exited() {
			t.Fatalf("task %s did not finish after its core went offline", task.Name)
		}
	}
	if k.CPUOnline(2) || k.CPUOnline(3) {
		t.Fatal("core 1's contexts still online")
	}
	if n := k.NumOnlineCPUs(); n != 2 {
		t.Fatalf("NumOnlineCPUs = %d, want 2", n)
	}
	if k.MigHotplug == 0 {
		t.Fatal("no hotplug migrations counted despite a loaded core going offline")
	}
	// Nothing may land on the dead core afterwards.
	for cpu := 2; cpu < 4; cpu++ {
		if cur := k.RQ(cpu).Current(); cur != nil {
			t.Fatalf("offline cpu%d is running %s", cpu, cur.Name)
		}
		if q := k.RQ(cpu).NrQueued(); q != 0 {
			t.Fatalf("offline cpu%d still has %d queued tasks", cpu, q)
		}
	}
}

func TestOfflineCoreBreaksStrandedAffinity(t *testing.T) {
	e, k := newTestKernel(1)
	pinned := k.AddProcess(TaskSpec{Name: "pinned", Policy: PolicyNormal, Affinity: pin(2)},
		func(env *Env) { env.Compute(200 * sim.Millisecond) })
	k.Watch(pinned)
	e.Schedule(50*sim.Millisecond, func() { k.OfflineCore(1) })
	k.RunUntilWatchedExit(10 * sim.Second)
	if !pinned.Exited() {
		t.Fatal("task pinned to a lost core never finished")
	}
	if pinned.Affinity != 0 {
		t.Fatalf("stranded task kept affinity %b; hotplug must break it", pinned.Affinity)
	}
	if pinned.CPU >= 2 {
		t.Fatalf("stranded task finished on offline cpu%d", pinned.CPU)
	}
}

func TestOfflineCoreSleepingTaskWakesElsewhere(t *testing.T) {
	e, k := newTestKernel(1)
	task := k.AddProcess(TaskSpec{Name: "sleeper", Policy: PolicyNormal, Affinity: pin(3)},
		func(env *Env) {
			env.Compute(10 * sim.Millisecond)
			env.Sleep(100 * sim.Millisecond)
			env.Compute(10 * sim.Millisecond)
		})
	k.Watch(task)
	// The core dies while the task sleeps on it; the wake path must place
	// it on a surviving CPU.
	e.Schedule(50*sim.Millisecond, func() { k.OfflineCore(1) })
	k.RunUntilWatchedExit(10 * sim.Second)
	if !task.Exited() {
		t.Fatal("sleeper never finished after its CPU went offline mid-sleep")
	}
	if task.CPU >= 2 {
		t.Fatalf("sleeper woke on offline cpu%d", task.CPU)
	}
}

func TestOfflineCoreIdempotent(t *testing.T) {
	_, k := newTestKernel(1)
	k.OfflineCore(1)
	k.OfflineCore(1) // second offline of the same core: no-op
	if n := k.NumOnlineCPUs(); n != 2 {
		t.Fatalf("NumOnlineCPUs = %d after double offline, want 2", n)
	}
}

func TestOfflineLastCorePanics(t *testing.T) {
	_, k := newTestKernel(1)
	k.OfflineCore(0)
	defer func() {
		if recover() == nil {
			t.Fatal("offlining the last core did not panic")
		}
	}()
	k.OfflineCore(1)
}

func TestOfflineCoreDeterministic(t *testing.T) {
	run := func() sim.Time {
		e, k := newTestKernel(99)
		var last *Task
		for i := 0; i < 6; i++ {
			task := k.AddProcess(TaskSpec{Name: "w", Policy: PolicyNormal},
				func(env *Env) {
					for j := 0; j < 5; j++ {
						env.Compute(20 * sim.Millisecond)
						env.Sleep(5 * sim.Millisecond)
					}
				})
			k.Watch(task)
			last = task
		}
		e.Schedule(30*sim.Millisecond, func() { k.OfflineCore(0) })
		end := k.RunUntilWatchedExit(10 * sim.Second)
		if !last.Exited() {
			t.Fatal("workload did not finish")
		}
		return end
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different end times with hotplug: %v vs %v", a, b)
	}
}

// TestOfflineCoreKeepsMigratableCount: a pinned task queued on a core that
// goes offline has its affinity broken before it is drained, so the drain
// must count it by the pinned flag its enqueue recorded, and its re-enqueue
// elsewhere counts it as migratable. The kernel's migratable count stays
// exact through the evacuation and afterwards.
func TestOfflineCoreKeepsMigratableCount(t *testing.T) {
	e, k := newTestKernel(1)
	// Two tasks pinned to CPU2: one runs, the other waits in its queue.
	for i := 0; i < 2; i++ {
		k.Watch(k.AddProcess(TaskSpec{Name: "pinned", Policy: PolicyNormal, Affinity: pin(2)},
			func(env *Env) { env.Compute(40 * sim.Millisecond) }))
	}
	k.Watch(k.AddProcess(TaskSpec{Name: "free", Policy: PolicyNormal},
		func(env *Env) { env.Compute(40 * sim.Millisecond) }))
	check := func(when string) {
		want := 0
		for _, task := range k.Tasks() {
			pinned := task.Affinity != 0 && task.Affinity&(task.Affinity-1) == 0
			if task.state == StateRunnable && !pinned {
				want++
			}
		}
		if k.nrMigratable != want {
			t.Fatalf("%s: nrMigratable = %d, want %d", when, k.nrMigratable, want)
		}
	}
	e.Schedule(5*sim.Millisecond, func() {
		if k.RQ(2).NrQueued() != 1 {
			t.Fatalf("CPU2 queues %d tasks before the offline, want 1", k.RQ(2).NrQueued())
		}
		check("before OfflineCore")
		k.OfflineCore(1)
		check("after OfflineCore")
	})
	var probe func()
	probe = func() {
		check("during the run")
		if k.Watching() > 0 {
			e.After(sim.Millisecond, probe)
		}
	}
	e.Schedule(5*sim.Millisecond+1, probe)
	k.RunUntilWatchedExit(10 * sim.Second)
	check("at the end")
}
