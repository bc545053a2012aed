package sched

import "fmt"

// CPU hotplug (removal only): the fault layer's "permanent core loss"
// scenario. OfflineCore removes a whole core — both SMT contexts — from
// scheduling, migrating its tasks to the surviving CPUs exactly the way
// Linux CPU hotplug evacuates a dying CPU (migration_call →
// move_task_off_dead_cpu): running and queued tasks are re-placed through
// their class's SelectCPU, and a task whose affinity mask intersects no
// online CPU has its affinity broken (select_fallback_rq) rather than being
// stranded. Whole cores, not single contexts, are removed so the SMT
// machinery (sibling speed coupling, the SMT-domain active balance, snooze)
// never sees a half-dead core.

// CPUOnline reports whether cpu is still schedulable.
func (k *Kernel) CPUOnline(cpu int) bool { return !k.rqs[cpu].offline }

// NumOnlineCPUs returns the number of CPUs not removed by OfflineCore.
func (k *Kernel) NumOnlineCPUs() int { return k.onlineCPUs }

// OfflineCore permanently removes core (both its contexts) from scheduling.
// Its running and queued tasks migrate to online CPUs; pinned tasks whose
// affinity no longer intersects the online set get their affinity broken
// first. Removing the last online core panics: a machine with no CPUs
// cannot make progress and the model bug must surface.
func (k *Kernel) OfflineCore(core int) {
	if core < 0 || 2*core+1 >= len(k.rqs) {
		panic(fmt.Sprintf("sched: OfflineCore(%d) out of range", core))
	}
	base := 2 * core
	if k.rqs[base].offline {
		return // already gone; core loss is permanent and idempotent
	}
	if k.onlineCPUs <= 2 {
		panic("sched: OfflineCore would remove the last online core")
	}
	for cpu := base; cpu <= base+1; cpu++ {
		rq := k.rqs[cpu]
		// Retire the tick: settle any parked stretch exactly (the replay
		// must run before the queues below are mutated), then cancel the
		// periodic event for good. With no tick left to review, the CPU
		// drops any review this instant's wakes left it in.
		if rq.parked() {
			k.wakeTick(rq)
		}
		rq.tick = tickArmed
		if rq.tickEv != nil {
			k.Engine.Cancel(rq.tickEv)
			rq.tickEv = nil
		}
		rq.offline = true
		k.onlineCPUs--
	}
	// With the dead CPUs marked offline, break the affinity of every live
	// task that can no longer run anywhere — pinned per-CPU daemons of the
	// dead core, whether running, queued or asleep (a sleeping one would
	// otherwise panic in SelectCPU at its next wake).
	for _, t := range k.tasks {
		if !t.Exited() && !k.hasOnlineAllowed(t) {
			t.Affinity = 0
		}
	}
	for cpu := base; cpu <= base+1; cpu++ {
		rq := k.rqs[cpu]
		// Evacuate the running task. The tick is retired above, so
		// vacate's busy-park settle has nothing to do.
		if t := rq.current; t != nil {
			k.vacate(t)
			t.state = StateRunnable
			k.migrateOff(t)
		}
		// Drain the class queues in priority order.
		for ci := range k.classes {
			crq := rq.classRQ[ci]
			for {
				t := crq.PickNext()
				if t == nil {
					break
				}
				k.noteDequeued(rq, t)
				k.migrateOff(t)
			}
		}
		rq.idleSince = k.Now()
	}
}

// hasOnlineAllowed reports whether t's affinity admits any online CPU.
func (k *Kernel) hasOnlineAllowed(t *Task) bool {
	for cpu := range k.rqs {
		if !k.rqs[cpu].offline && t.MayRunOn(cpu) {
			return true
		}
	}
	return false
}

// migrateOff re-places a task evacuated from a dead CPU. The task is
// Runnable and dequeued; its accounting is settled. Placement goes through
// the ordinary activate path (the class's SelectCPU now skips offline
// CPUs), with the dead CPU forgotten so no placement tie-break prefers it.
func (k *Kernel) migrateOff(t *Task) {
	k.account(t)
	t.CPU = -1 // never prefer the dead CPU; suppresses the MigWake count
	t.Migrations++
	k.MigHotplug++
	t.state = StateSleeping // transient, for activate's sanity check
	k.activate(t, false)
}
