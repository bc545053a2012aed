package sched

import (
	"fmt"
	"sort"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// tickState says where a CPU's tick event (RunQueue.tickEv) stands. Each
// CPU owns one tick event for its lifetime, and ticks only ever fire on
// the CPU's grid, its first tick instant + k·period. When every tick until
// some computable horizon is provably a no-op, the event is parked — re-armed
// past its grid — and the skipped instants are settled later in closed
// form (settleStretch): a parked stretch's ticks all sample the same
// occupancy, so its load needs one applyLoad, and a busy stretch's class
// bookkeeping one TickHorizon.ElideTicks. A stretch is settled before the
// load is next read or the ticker resumes.
//
//	state           moved into it by                  left by
//	tickArmed       a fired tick or a review whose    firing
//	                next tick may act (parkAt); a
//	                wake on a grid instant (wakeTick)
//	tickIdleParked  parkAt with current == nil        firing; a transition that can
//	                (maybeParkTick)                   lower its horizon (wakeIdleParks)
//	tickBusyParked  parkAt with current != nil        firing; a transition of this CPU
//	                (maybeParkBusyTick)               (wakeBusyParked)
//	tickReviewed    a wake off the grid (wakeTick)    the end of the instant (reviewTick)
//
// An idle park's horizon reads machine-wide state — every CPU's queue and
// running task feed the balance gates — so the transitions that can lower
// it wake it; wakeIdleParks lists which wake which. A busy park's horizon
// reads only its own CPU's state, so only local transitions wake it: an
// enqueue or dequeue on this CPU, the running task leaving (schedule,
// deactivate, exit, migration), and a weight, policy or class change of
// the running task. A reviewed tick's stretch is settled through the last
// grid instant before the wake, and its event still sits at the parked
// instant; no reviewed state survives its instant. An offline CPU has no
// tick event and stays tickArmed.
type tickState uint8

const (
	tickArmed tickState = iota
	tickIdleParked
	tickBusyParked
	tickReviewed
)

// parked reports whether rq's tick event is parked past its grid.
func (rq *RunQueue) parked() bool {
	return rq.tick == tickIdleParked || rq.tick == tickBusyParked
}

// startTicker arms the periodic scheduler tick for cpu. Ticks are staggered
// across CPUs as on real SMP kernels. The tick's one callback re-arms its
// event via Reschedule, so the periodic tick never allocates.
func (k *Kernel) startTicker(cpu int) {
	period := k.Opts.TickPeriod
	offset := period * sim.Time(cpu) / sim.Time(k.Chip.NumCPUs())
	rq := k.rqs[cpu]
	first := k.Engine.Now() + offset
	rq.period = period
	rq.loadAnchor = first - period
	rq.loadTicked = first - period
	rq.lastTickAt = first - period
	tick := func() { k.tick(cpu) }
	rq.tickEv = k.Engine.Schedule(first, tick)
}

// gridCeil returns the smallest tick-grid instant of rq at or after t. It
// counts from lastTickAt, the last grid instant settled, so t within the
// period after it — the common case — needs no division.
func (rq *RunQueue) gridCeil(t sim.Time) sim.Time {
	d, p := t-rq.lastTickAt, rq.period
	switch {
	case d > 0 && d <= p:
		return rq.lastTickAt + p
	case d > 0:
		return rq.lastTickAt + (d+p-1)/p*p
	default:
		return rq.lastTickAt + d/p*p // rounds toward zero: up, for d ≤ 0
	}
}

// gridFloor returns the largest tick-grid instant of rq at or before t
// (see gridCeil).
func (rq *RunQueue) gridFloor(t sim.Time) sim.Time {
	if g := rq.gridCeil(t); g > t {
		return g - rq.period
	}
	return t
}

// loadAlpha is the per-tick decay constant of the occupancy average
// (tick/100 ms horizon), and loadSnap the convergence snap: once the
// average is within 1e-9 of its sample the value is pinned to it. The only
// threshold consumer (activeBalance, 0.35/0.75) cannot see the snap.
const (
	loadAlpha = 0.01
	loadSnap  = 1e-9
)

// loadPow[k] is (1−loadAlpha)^k, built once by repeated multiplication up
// to the first power below loadSnap: from there on every |x0−s| ≤ 1 has
// snapped, so loadEval needs no larger k.
var loadPow = func() []float64 {
	pow := []float64{1}
	for pow[len(pow)-1] >= loadSnap {
		pow = append(pow, pow[len(pow)-1]*(1-loadAlpha))
	}
	return pow
}()

// loadEval is the occupancy average k grid instants after an anchor of
// value x0 under the constant sample s: s + (x0−s)·(1−loadAlpha)^k, pinned
// to s once within loadSnap of it. k = 0 is the anchor itself, exactly.
// The product is rounded before the add (the explicit conversion forbids
// a fused multiply-add), so every platform evaluates the same bits.
func loadEval(x0, s float64, k int64) float64 {
	if k == 0 {
		return x0
	}
	if k >= int64(len(loadPow)) {
		return s
	}
	d := float64((x0 - s) * loadPow[k])
	if d < loadSnap && d > -loadSnap {
		return s
	}
	return s + d
}

// loadAvg returns rq's occupancy average at grid instant loadTicked.
func (rq *RunQueue) loadAvg() float64 {
	return loadEval(rq.loadX0, rq.loadS, int64((rq.loadTicked-rq.loadAnchor)/rq.period))
}

// applyLoad applies the occupancy sample s at every tick-grid instant of
// rq in (loadTicked, through], through being on the grid. The fired tick
// and every settle of a tickless stretch share it: a run of the anchor's
// own sample only advances loadTicked, and a new sample re-anchors at the
// value of loadTicked. Both paths therefore anchor at the same instants
// and read the same bits.
func (rq *RunQueue) applyLoad(s float64, through sim.Time) {
	if through <= rq.loadTicked {
		return
	}
	if s != rq.loadS {
		rq.loadX0, rq.loadS, rq.loadAnchor = rq.loadAvg(), s, rq.loadTicked
	}
	rq.loadTicked = through
}

// settleIdleLoad applies the idle sample to every tick-grid instant of rq
// in (loadTicked, through]. It is the exactness half of tickless idle: a
// parked CPU's load is not sampled by tick events, so every reader — and
// the resuming tick itself — first settles the skipped instants. Only
// whole idle stretches are ever settled (the CPU cannot have run while its
// tick was parked), so the sample is always 0.
func (k *Kernel) settleIdleLoad(rq *RunQueue, through sim.Time) {
	rq.applyLoad(0, rq.gridFloor(through))
}

// accountAt advances the wall-time accounting of the running task t to the
// elided grid instant at. It is account specialised to the only state a
// busy parked stretch can contain (Running) and to an explicit — possibly
// past — instant. Every settle point of a stretch replays the stretch
// before accounting t at the present, so t.lastUpdate can never be ahead
// of an instant being replayed.
func (k *Kernel) accountAt(t *Task, at sim.Time) {
	d := at - t.lastUpdate
	if d < 0 {
		panic("sched: busy-tick replay behind the task's accounting")
	}
	t.SumExec += d
	t.lastUpdate = at
}

// settleStretch settles the elided tick instants of a parked stretch of rq
// in (lastTickAt, through] — flooring through to the tick grid — and
// advances lastTickAt and the machine-wide elided count, in O(1) whatever
// the stretch's length. Idle stretches settle only the load at sample 0:
// nothing else happens on an idle CPU's tick, by the park proof. Busy
// stretches settle the full tick body: the load at sample 1, the running
// task's wall-time accounting and the class bookkeeping. The first instant
// runs the real class Tick, whose vruntime delta may span a partial period
// left by mid-grid accounting; every later instant spans exactly one
// period, so TickHorizon.ElideTicks applies them together, bit for bit as
// the fired ticks would have. The park horizon guarantees that none of
// them requests a reschedule.
func (k *Kernel) settleStretch(rq *RunQueue, through sim.Time) {
	p := rq.period
	if through-rq.lastTickAt < p {
		return // no grid instant in (lastTickAt, through]
	}
	n := (through - rq.lastTickAt) / p
	through = rq.lastTickAt + n*p
	if rq.tick == tickBusyParked {
		rq.applyLoad(1, through)
		t := rq.current
		crq := rq.classRQ[t.classIdx]
		k.accountAt(t, rq.lastTickAt+p)
		crq.Tick(t)
		if n > 1 {
			k.accountAt(t, through)
			crq.(TickHorizon).ElideTicks(t, int(n-1))
		}
	} else {
		rq.applyLoad(0, through)
	}
	k.stats.TicksElided += int64(n)
	rq.lastTickAt = through
}

// settleBusyLoad settles only the load of a busy-parked stretch, up to the
// last grid instant at or before through — for readers of a busy CPU's
// load (activeBalance donor thresholds) that must not otherwise disturb
// the stretch. The full settle (settleStretch) tolerates a load already
// applied ahead of the accounting: applyLoad skips instants at or before
// loadTicked. The CPU ran throughout the stretch, so the sample is 1.
func (k *Kernel) settleBusyLoad(rq *RunQueue, through sim.Time) {
	if rq.tick == tickBusyParked {
		rq.applyLoad(1, rq.gridFloor(through))
	}
}

// settleBusyTicks replays the elided instants of a busy-parked stretch of
// rq up to — but excluding — the present instant, without waking the tick.
// Used where the stretch continues but the running task's accounting is
// about to be settled mid-grid (burst completion) or read (end of run).
// The present instant is excluded because, when it lies on the grid, its
// tick may still fire as a real event this instant (the park horizon); if
// it does not, a later settle or wake replays it — the replay commutes
// with mid-grid accounting, since each Tick's vruntime delta spans the
// same SumExec interval either way.
func (k *Kernel) settleBusyTicks(rq *RunQueue) {
	if rq.tick == tickBusyParked {
		k.settleStretch(rq, k.Now()-1)
	}
}

// tick performs the per-CPU periodic work: settle accounting, let the
// current class act (timeslices, fairness), honour preemption requests,
// and rebalance idle CPUs (rebalance_tick). After a parked stretch the
// first firing replays the skipped instants before applying its own. It
// ends by re-arming its own event with Reschedule: one period out, or
// parked further ahead.
func (k *Kernel) tick(cpu int) {
	rq := k.rqs[cpu]
	now := k.Now()
	period := rq.period
	if now != rq.lastTickAt+period { // on-cadence fast path: nothing elided
		// First firing after a parked stretch: settle the elided instants
		// up to the previous grid instant (idle stretches: the load;
		// busy stretches: the full tick body, in closed form).
		k.settleStretch(rq, now-period)
	}
	rq.lastTickAt = now
	// Decayed occupancy average (cpu_load): the balancer reads this, not
	// the instantaneous state, so brief waits do not look like idleness.
	sample := 0.0
	if rq.current != nil {
		sample = 1
	}
	rq.applyLoad(sample, now)
	if t := rq.current; t != nil {
		k.account(t)
		rq.classRQ[t.classIdx].Tick(t)
	} else if rq.NrQueued() == 0 {
		// Idle CPU: periodically retry the balance pull, including the
		// SMT-domain active migration (a fully idle core pulls a running
		// task from a core running two). When nothing is queued anywhere
		// and the CPU has not yet been idle long enough for the active
		// balance to even consider firing (its first gate), the whole
		// pass is provably a no-op — skip it.
		if k.nrQueued != 0 || rq.idleSince == sim.MaxTime ||
			now-rq.idleSince >= 4*period {
			k.schedule(cpu)
		}
		// Still idle after the balance attempt: enter SMT snooze once the
		// configured delay has passed, handing decode slots to the
		// sibling (smt_snooze_delay).
		if d := k.Opts.SMTSnoozeDelay; d > 0 && rq.current == nil &&
			now-rq.idleSince >= d {
			ctx := k.Chip.CPU(cpu)
			if ctx.Priority() != power5.PrioVeryLow {
				if err := ctx.SetPriority(power5.PrioVeryLow, power5.PrivSupervisor); err != nil {
					panic(fmt.Sprintf("sched: snooze failed: %v", err))
				}
			}
		}
	}
	if rq.needResched && !rq.reschedPending {
		k.Resched(cpu)
	}
	// Re-arm: one period out, or parked past the cadence.
	at, st := k.parkAt(rq, now, sim.MaxTime)
	rq.tick = st
	k.Engine.Reschedule(rq.tickEv, at)
}

// ticklessParkCap bounds a parked stretch, in ticks. A capped wake-up is
// harmless — any tick before the park horizon is provably a no-op, so the
// resumed tick simply re-parks — and the bound keeps the horizon
// arithmetic trivially overflow-free while costing one no-op tick per
// ~second of fully idle virtual time.
const ticklessParkCap = 1024

// parkAt is the one park decision. For rq's tick at grid instant g it
// returns the instant to arm the tick event at next and the state the
// tick enters. The fired tick asks at g = now, after its body ran. The
// review of a tick woken off its grid (reviewTick) asks at the next grid
// instant, g = lastTickAt + period, before that tick fires: the wake
// settled the stretch through lastTickAt, and any change before g wakes
// the tick again, so the tick at g would find exactly the present state.
//
// An idle CPU parks when maybeParkTick proves every tick from g up to a
// horizon a no-op, a busy CPU when maybeParkBusyTick does. The two differ
// in one respect. The idle horizon is absolute and judged at g: a park is
// granted only past g+period, which for a review proves the tick at g a
// no-op too.
// TickNoops counts from the grid tick after lastTickAt, which is g+period
// for a fired tick and g itself for a review, so the busy park instant is
// lastTickAt + n·period in both.
//
// Either park arms the event one grid instant before the first tick that
// could act: that firing is still provably a no-op, and its ordinary
// in-cadence re-arm then gives the acting tick the same scheduling
// instant — and so the same position among same-instant events — it would
// have had had the tick never parked. Without a park the tick after g
// might act: the answer is g+period, armed.
//
// by is the instant the caller needs the park to reach, MaxTime when it
// needs the exact instant: an idle park that provably reaches by returns
// by itself, without searching for where it ends (see maybeParkTick).
func (k *Kernel) parkAt(rq *RunQueue, g, by sim.Time) (sim.Time, tickState) {
	if at, ok := k.maybeParkTick(rq, g, by); ok {
		return at, tickIdleParked
	}
	if at, ok := k.maybeParkBusyTick(rq); ok {
		return at, tickBusyParked
	}
	return g + rq.period, tickArmed
}

// maybeParkTick decides whether every tick of the idle rq from grid
// instant g on is provably unobservable until some future instant, and if
// so returns the instant to park the tick event at (see parkAt).
//
// A parked CPU's ticks would do exactly four things; each is either shown
// impossible until the horizon or reproduced exactly:
//
//   - the load sample (0): settled lazily in closed form, one applyLoad
//     per stretch (settleIdleLoad, settleStretch), before any read and
//     before the tick resumes;
//   - the idle-balance pull: with migratable tasks queued, provably
//     futile while the negative-result cache holds (no queue mutation —
//     any mutation wakes the tick — and no hot-rejected candidate cooled:
//     the horizon includes lbRetryAt); with only pinned tasks queued, or
//     none, idleBalance runs no scan at all;
//   - the SMT-domain active balance: its gates open no earlier than
//     activeBalanceEligibleAt — a lower bound built from the frozen
//     idle-since marks, the deterministic loadAvg trajectories of this
//     CPU, its sibling and every potential donor core, and donor
//     existence (a transition that can create a donor wakes the tick);
//   - the snooze entry: a pure function of idleSince, included below.
//
// by, when a grid instant in (g+period, g+ticklessParkCap·period], asks
// only whether the park reaches by: once every gate is shown shut through
// by — one load evaluation per load gate at by, no search — the answer is
// by itself. The park instant then lies at or past by, since the first
// tick that could act lies past it. Any other by asks for the exact park.
func (k *Kernel) maybeParkTick(rq *RunQueue, g, by sim.Time) (sim.Time, bool) {
	if k.Opts.NoTicklessIdle {
		return 0, false
	}
	if rq.current != nil || rq.nrQueued > 0 || rq.needResched || rq.reschedPending {
		return 0, false
	}
	if rq.idleSince == sim.MaxTime {
		return 0, false
	}
	period := rq.period
	cap := g + ticklessParkCap*period
	if by <= g+period || by > cap {
		by = sim.MaxTime
	}
	// h is the first instant a tick could act at, exact when it is at or
	// before by; past by it only has to stay past by.
	h := sim.MaxTime
	if k.nrMigratable != 0 {
		// Every tick runs the idle-balance pull: only the valid
		// negative-result cache makes it futile, and only until a
		// hot-rejected candidate cools. Pinned tasks alone never make it
		// act: idleBalance skips the scan for them.
		if !rq.lbFailed || rq.lbFailGen != k.queueGen {
			return 0, false
		}
		h = rq.lbRetryAt
	}
	if d := k.Opts.SMTSnoozeDelay; d > 0 &&
		k.Chip.CPU(rq.CPU).Priority() != power5.PrioVeryLow {
		h = min(h, rq.idleSince+d)
	}
	// The active balance matters only where it opens before both h and by.
	h = min(h, k.activeBalanceEligibleAt(rq, min(h, by)))
	if h > by {
		return by, true
	}
	var arm sim.Time
	if h >= cap {
		arm = cap // capped: the wake-up re-checks and re-parks
	} else {
		// One grid instant before the first tick that could act.
		arm = rq.gridCeil(h) - period
	}
	if arm <= g+period {
		return 0, false // nothing to skip
	}
	return arm, true
}

// maybeParkBusyTick is the busy-CPU (NO_HZ_FULL) counterpart of
// maybeParkTick: decide whether every tick of rq's running task from the
// grid tick after lastTickAt on is provably a no-op for some computable
// number of grid instants, and if so return the instant to park the tick
// event at (see parkAt).
//
// A busy CPU's tick does exactly four things; while the CPU keeps running
// the same task with an unchanged class queue, each is either reproduced
// exactly at the next observation point or shown impossible:
//
//   - the load sample (1): settled lazily in closed form, one applyLoad
//     per stretch (settleStretch, settleBusyLoad), before any read and
//     before the tick resumes;
//   - the running task's accounting: integer wall-time accounting,
//     advanced to the stretch's first instant and then to its last
//     (accountAt);
//   - the class Tick (slice expiry, RR quanta, vruntime fairness): the
//     class itself bounds, via TickHorizon.TickNoops, how many future
//     ticks are provably free of Resched requests under frozen queue
//     state; the stretch's first instant runs the real Tick and the rest
//     of its bookkeeping (vruntime adds, quantum decrements) is applied
//     by one TickHorizon.ElideTicks;
//   - the needResched check: Resched pairs every needResched with a
//     pending scheduling pass (which wakes the park), so a parked stretch
//     cannot strand one.
func (k *Kernel) maybeParkBusyTick(rq *RunQueue) (sim.Time, bool) {
	if k.Opts.NoTicklessBusy {
		return 0, false
	}
	t := rq.current
	if t == nil || rq.needResched || rq.reschedPending {
		return 0, false
	}
	th, ok := rq.classRQ[t.classIdx].(TickHorizon)
	if !ok {
		return 0, false
	}
	n := th.TickNoops(t)
	if n > ticklessParkCap {
		n = ticklessParkCap // capped: the wake-up re-checks and re-parks
	}
	if n < 2 {
		return 0, false // nothing to skip
	}
	return rq.lastTickAt + sim.Time(n)*rq.period, true
}

// activeBalanceEligibleAt returns a lower bound on the first instant at
// which activeBalance(rq) could return non-nil, assuming no current/queue
// transition happens anywhere in between that could lower it (each such
// transition wakes the parked tick and the bound is recomputed; see
// wakeIdleParks). The bound is exact with respect to the deterministic
// parts of the state: the frozen idle-since marks and the load
// trajectories, which between transitions follow a known closed form at
// known grid instants.
//
// The bound is exact when it is at or before by. Past by it need only stay
// past by, so the walk ends at the first gate shown shut through by, and
// a load crossing is searched for only when it lies at or before by.
func (k *Kernel) activeBalanceEligibleAt(rq *RunQueue, by sim.Time) sim.Time {
	sib := k.rqs[rq.CPU^1]
	if sib.current != nil || sib.nrQueued > 0 || sib.idleSince == sim.MaxTime {
		return sim.MaxTime // core not fully idle; a transition wakes us
	}
	// The gates open together: the bound is the latest of their openings,
	// walked from the cheapest to test.
	t := max(rq.idleSince, sib.idleSince) + 4*rq.period
	if t > by {
		return t
	}
	// A donor core must exist: both contexts busy, loadAvg ≥ 0.75 on both
	// (rising deterministically while they stay busy), with at least one
	// current task allowed on this CPU. The earliest donor counts.
	donor := sim.MaxTime
	for base := 0; base < len(k.rqs); base += 2 {
		if base == rq.CPU&^1 {
			continue
		}
		a, b := k.rqs[base], k.rqs[base+1]
		if a.current == nil || b.current == nil {
			continue
		}
		if !a.current.MayRunOn(rq.CPU) && !b.current.MayRunOn(rq.CPU) {
			continue
		}
		pair := a.loadCrossAt(1, 0.75, min(by, donor))
		if pair <= min(by, donor) {
			pair = max(pair, b.loadCrossAt(1, 0.75, min(by, donor)))
		}
		donor = min(donor, pair)
	}
	if t = max(t, donor); t > by {
		return t
	}
	if t = max(t, rq.loadCrossAt(0, 0.35, by)); t > by {
		return t
	}
	return max(t, sib.loadCrossAt(0, 0.35, by))
}

// loadCrossAt returns the first grid instant at or after loadTicked at
// which rq's load, sampling s from loadTicked on, has reached limit (≤
// limit for s = 0, ≥ limit for s = 1), or sim.MaxTime if it never does. It
// reads the evaluation the later settles will apply — the anchor
// continues when its sample is s, and re-anchors at loadTicked otherwise.
// The trajectory moves monotonically toward s and is s from the end of
// loadPow on, so one evaluation at the last grid instant at or before by
// tells whether the crossing lies past by — then MaxTime stands for it —
// and only a crossing at or before by is searched for, by bisection.
func (rq *RunQueue) loadCrossAt(s, limit float64, by sim.Time) sim.Time {
	p := rq.period
	x0, base := rq.loadX0, int64((rq.loadTicked-rq.loadAnchor)/p)
	if s != rq.loadS {
		x0, base = rq.loadAvg(), 0
	}
	reached := func(j int64) bool {
		v := loadEval(x0, s, base+j)
		if s == 0 {
			return v <= limit
		}
		return v >= limit
	}
	if reached(0) {
		return rq.loadTicked // the common case: a load already settled at s
	}
	// From j = n on the load is s; past j = m the grid instants lie past by.
	n := max(int64(len(loadPow))-base, 0)
	m := n
	if by < rq.loadTicked+sim.Time(n)*p {
		m = max(int64((by-rq.loadTicked)/p), 0)
	}
	if !reached(m) {
		return sim.MaxTime
	}
	j := sort.Search(int(m), func(j int) bool { return reached(int64(j)) })
	return rq.loadTicked + sim.Time(j)*p
}

// wakeIdleParks wakes the idle-parked ticks among rqs: a queue membership
// or running-task transition just happened, so their balance horizons may
// no longer bound the first observable tick. A transition wakes only the
// parks whose horizon it can lower; a park whose horizon can only rise
// stays, since its tick fires early at worst, as a no-op that re-parks.
//
//	transition on CPU c              idle parks woken
//	enqueue/dequeue of t (queueChanged)
//	  t migratable, or any is queued  every CPU's
//	  t pinned, none migratable       none
//	vacate (t leaves c)               c's sibling: its core may now be
//	                                  fully idle
//	dispatch (t starts on c)          c's own; every CPU's when c's
//	                                  sibling runs a task, since c's core
//	                                  just became doubly busy: a donor
//
// No other transition can lower an idle horizon: it reads the CPU's own
// state, its sibling's occupancy and idle mark, the negative-result cache
// (versioned by the queues) and the donor cores, and a donor appears only
// where a core becomes doubly busy.
//
// It must be called before the mutation schedules any same-instant
// follow-up events (Resched), so a tick woken on its grid keeps its place
// before them — see wakeTick for why that reproduces the never-parked
// order.
func (k *Kernel) wakeIdleParks(rqs []*RunQueue) {
	for _, rq := range rqs {
		k.wakeIdlePark(rq)
	}
}

// wakeIdlePark wakes rq's tick if it is parked over an idle stretch.
func (k *Kernel) wakeIdlePark(rq *RunQueue) {
	if rq.tick == tickIdleParked {
		k.wakeTick(rq)
	}
}

// queueChanged wakes the idle-parked ticks that t's enqueue on, or dequeue
// from, rq may have made observable. A migratable task, or any task while
// a migratable one is queued, can change what a steal scan finds, so every
// idle park wakes. A pinned task while none is migratable cannot: no pull
// can succeed before or after. Its queue is then read only by its own CPU
// and by the sibling's activeBalance gate, and neither park can need the
// wake: a pinned task queues only on a busy CPU, whose non-empty queue
// holds the sibling's gate at MaxTime, and an idle CPU's own park is
// woken by its dispatch.
func (k *Kernel) queueChanged(t *Task) {
	if t.pinned && k.nrMigratable == 0 {
		return
	}
	k.wakeIdleParks(k.rqs)
}

// wakeBusyParked wakes rq's tick if it is parked over a busy stretch: a
// local transition is about to invalidate the park horizon. The stretch
// is settled (replayed) through the present before the caller mutates
// anything, so the replay runs under the exact frozen state the horizon
// assumed.
func (k *Kernel) wakeBusyParked(rq *RunQueue) {
	if rq.tick == tickBusyParked {
		k.wakeTick(rq)
	}
}

// wakeTick unparks a parked tick: it settles the stretch up to the last
// grid instant before the present and hands the tick back to the cadence.
//
// Off the grid — the common case — the tick is not re-armed. It is left
// reviewed, and when the instant ends reviewTick decides, from the state
// the instant left, what the tick at the next grid instant would decide:
// park again (keeping or moving the parked event) or run. Most woken
// ticks would only re-park, so the review saves their firing; any later
// change before that grid instant wakes the tick again.
//
// Exactly on a grid instant T the tick is re-armed at once, because its
// order among T's events matters: the never-parked tick at T would have
// carried a sequence number from its arming at T−period, so it ordered
// before exactly those same-instant events armed after T−period. If the
// event firing now was armed after that point, the virtual tick at T
// "already fired" — before this event — and, being pre-mutation, was a
// no-op: its decay is settled and the tick resumes at T+period. Otherwise
// the tick at T still belongs after the firing event, which re-arming now
// (before the mutation schedules its same-instant follow-ups) reproduces.
//
// Two corners of this reconstruction are resolved by convention rather
// than proof: an arming at exactly T−period is ambiguous between the
// branches (resolved as tick-first, matching the dominant source of
// period-exact arming — the tick chain itself), and an *already-pending*
// event at T armed within (T−period, now) other than the one firing will
// precede the re-armed tick although the never-parked tick preceded it.
// Both require an independently scheduled deadline to land exactly on the
// 1 ms tick grid — a single nanosecond on a grid populated by RNG-jittered
// burst/latency arithmetic — and are pinned empirically by the golden
// tables and the randomized tickless-equivalence tests.
func (k *Kernel) wakeTick(rq *RunQueue) {
	k.stats.TickWakes++
	now := k.Now()
	period := rq.period
	// Settle through the last grid instant before now: now is on the grid
	// if it is the next one, or if the real tick fired at now.
	k.settleStretch(rq, now-1)
	if rq.lastTickAt+period != now && rq.lastTickAt != now {
		rq.tick = tickReviewed
		k.Engine.RequestInstantEnd()
		return
	}
	at := now
	if rq.lastTickAt == now || k.Engine.FiringScheduledAt() >= now-period {
		// The virtual tick at now "already fired" (or the real one did —
		// lastTickAt == now — and re-parked at this very instant): settle
		// through now and resume one period later.
		k.settleStretch(rq, now)
		at = now + period
	}
	rq.tick = tickArmed
	k.Engine.Reschedule(rq.tickEv, at)
}

// reviewTicks is the engine's instant-end hook: every tick wakeTick left
// reviewed during the instant re-decides its park, from the state the
// instant left.
func (k *Kernel) reviewTicks() {
	for _, rq := range k.rqs {
		if rq.tick == tickReviewed {
			k.reviewTick(rq)
		}
	}
}

// reviewTick applies to rq's reviewed tick what its tick at the next grid
// instant g would decide (parkAt), without firing that tick. A park keeps
// the still-parked event where it is when that is no later than the park
// instant — the tick there is a no-op and re-decides — and moves it to
// the park instant otherwise. Only when the tick at g might act is it
// re-armed at g, as a wake on the grid would have it. Keeping needs only
// to know that the park reaches the parked instant, a grid instant, so
// that instant is parkAt's target.
func (k *Kernel) reviewTick(rq *RunQueue) {
	g := rq.lastTickAt + rq.period
	at, st := k.parkAt(rq, g, rq.tickEv.At())
	rq.tick = st
	switch {
	case st == tickArmed:
		k.stats.ReviewsRearmed++
		k.Engine.Reschedule(rq.tickEv, g)
	case rq.tickEv.At() <= at:
		k.stats.ReviewsKept++
	default:
		k.stats.ReviewsMoved++
		k.Engine.Reschedule(rq.tickEv, at)
	}
}
