package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestWheelRouting pins the two-tier routing rule: deadlines within the
// wheel horizon of the reference time go to the wheel, everything further
// out to the overflow heap.
func TestWheelRouting(t *testing.T) {
	e := NewEngine(1)
	near := e.Schedule(5, func() {})
	mid := e.Schedule(1<<20, func() {})
	far := e.Schedule(1<<wheelHorizonBits, func() {}) // beyond the horizon
	if near.slot < 0 || near.index >= 0 {
		t.Fatalf("near event not in the wheel: slot=%d index=%d", near.slot, near.index)
	}
	if mid.slot < 0 {
		t.Fatalf("mid event not in the wheel: slot=%d index=%d", mid.slot, mid.index)
	}
	if far.slot >= 0 || far.index < 0 {
		t.Fatalf("far event not in the heap: slot=%d index=%d", far.slot, far.index)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
}

// TestWheelZeroDelay exercises Schedule(Now()) from inside callbacks: the
// events land in the cursor slot of level 0 and fire in seq order at the
// same instant.
func TestWheelZeroDelay(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(1000, func() {
		order = append(order, 0)
		e.Schedule(1000, func() { order = append(order, 1) })
		e.Schedule(e.Now(), func() {
			order = append(order, 2)
			e.Schedule(e.Now(), func() { order = append(order, 3) })
		})
	})
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("zero-delay firing order = %v", order)
		}
	}
	if e.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", e.Now())
	}
}

// TestWheelCascadeBoundaries schedules events straddling every level-span
// boundary (and the exact boundary instants themselves), then checks they
// fire in (at, seq) order with the clock advancing monotonically.
func TestWheelCascadeBoundaries(t *testing.T) {
	e := NewEngine(1)
	var spans []Time
	for l := 1; l <= wheelLevels; l++ {
		spans = append(spans, Time(1)<<wheelShift(l))
	}
	var ats []Time
	for _, s := range spans {
		ats = append(ats, s-1, s, s+1, 2*s-1, 2*s, 3*s+7)
	}
	ats = append(ats, 0, 1, Time(1)<<wheelHorizonBits, Time(1)<<wheelHorizonBits+12345)
	var fired []Time
	for _, at := range ats {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	want := append([]Time(nil), ats...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if n := e.RunUntilIdle(); n != len(ats) {
		t.Fatalf("fired %d events, want %d", n, len(ats))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order %v, want %v", fired, want)
		}
	}
}

// TestWheelRescheduleAcrossTiers re-arms one event back and forth between
// the wheel and the heap, pending and mid-fire, and checks every hop.
func TestWheelRescheduleAcrossTiers(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev := e.Schedule(10, func() { fired++ })
	if ev.slot < 0 {
		t.Fatal("event should start in the wheel")
	}
	e.Reschedule(ev, Time(1)<<wheelHorizonBits+5) // pending: wheel → heap
	if ev.slot >= 0 || ev.index < 0 {
		t.Fatalf("after far reschedule: slot=%d index=%d", ev.slot, ev.index)
	}
	e.Reschedule(ev, 20) // pending: heap → wheel
	if ev.slot < 0 || ev.index >= 0 {
		t.Fatalf("after near reschedule: slot=%d index=%d", ev.slot, ev.index)
	}
	// Mid-fire re-arm into the heap, then drain.
	hops := 0
	var periodic *Event
	periodic = e.Schedule(30, func() {
		hops++
		if hops == 1 {
			e.Reschedule(periodic, e.Now()+Time(1)<<wheelHorizonBits+1)
			if periodic.index < 0 {
				t.Fatal("mid-fire far re-arm did not land in the heap")
			}
		}
	})
	e.RunUntilIdle()
	if fired != 1 || hops != 2 {
		t.Fatalf("fired=%d hops=%d, want 1 and 2", fired, hops)
	}
}

// TestWheelFarFutureOverflow checks heap-resident events fire correctly
// even when their deadline has long entered the wheel horizon by the time
// it comes up (the heap is never migrated into the wheel).
func TestWheelFarFutureOverflow(t *testing.T) {
	e := NewEngine(1)
	var order []string
	far := Time(1)<<wheelHorizonBits + 1000
	e.Schedule(far, func() { order = append(order, "far") })
	e.Schedule(far, func() { order = append(order, "far2") }) // same instant, heap
	e.Schedule(far-1, func() { order = append(order, "near") })
	// A ladder of intermediate events walks the reference time close to the
	// far deadline, so the wheel/heap comparison must break the tie by seq.
	for step := Time(1000); step < far; step *= 2 {
		e.Schedule(step, func() {})
	}
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != "near" || order[1] != "far" || order[2] != "far2" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != far {
		t.Fatalf("Now = %v, want %v", e.Now(), far)
	}
}

// refEvent is the model's view of one live event in the pure-heap
// reference implementation.
type refEvent struct {
	id  int
	at  Time
	seq uint64
}

// TestWheelDeterminismVsPureHeap drives the two-tier engine with a
// randomized stream of Schedule/Reschedule/Cancel/Step operations and
// checks the firing order matches a sorted-by-(at,seq) reference model —
// the exact contract the flat heap provided.
func TestWheelDeterminismVsPureHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(1)
	var (
		live     []*Event   // engine-side handles of pending events
		model    []refEvent // reference model, unordered
		fired    []int
		expected []int
		seq      uint64 // mirrors the engine's internal sequence counter
		nextID   int
	)
	ids := map[*Event]int{}
	// Delay distribution mixing every tier: same-instant, sub-granule,
	// level spans, exact boundaries, far-future overflow.
	randDelay := func() Time {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return Time(rng.Intn(1 << wheelGranuleBits))
		case 2:
			return Time(rng.Intn(1 << wheelShift(1)))
		case 3:
			return Time(rng.Intn(1 << wheelShift(2)))
		case 4:
			return Time(1)<<wheelShift(rng.Intn(wheelLevels)+1) - Time(rng.Intn(3))
		case 5:
			return Time(rng.Int63n(1 << wheelHorizonBits))
		case 6:
			return Time(1)<<wheelHorizonBits + Time(rng.Int63n(1<<20))
		default:
			return Time(rng.Intn(1 << 20))
		}
	}
	stepExpected := func() {
		best := -1
		for i, m := range model {
			if best < 0 || m.at < model[best].at ||
				(m.at == model[best].at && m.seq < model[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		expected = append(expected, model[best].id)
		model = append(model[:best], model[best+1:]...)
	}
	removeLive := func(ev *Event) {
		for i, l := range live {
			if l == ev {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	for op := 0; op < 20000; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // schedule
			at := e.Now() + randDelay()
			id := nextID
			nextID++
			ev := e.Schedule(at, func() { fired = append(fired, id) })
			seq++
			ids[ev] = id
			live = append(live, ev)
			model = append(model, refEvent{id: id, at: at, seq: seq})
		case r < 6 && len(live) > 0: // reschedule a pending event
			ev := live[rng.Intn(len(live))]
			at := e.Now() + randDelay()
			e.Reschedule(ev, at)
			seq++
			id := ids[ev]
			for i := range model {
				if model[i].id == id {
					model[i].at = at
					model[i].seq = seq
					break
				}
			}
		case r < 7 && len(live) > 0: // cancel
			i := rng.Intn(len(live))
			ev := live[i]
			id := ids[ev]
			if !e.Cancel(ev) {
				t.Fatalf("cancel of live event %d failed", id)
			}
			delete(ids, ev)
			live = append(live[:i], live[i+1:]...)
			for j := range model {
				if model[j].id == id {
					model = append(model[:j], model[j+1:]...)
					break
				}
			}
		default: // step
			had := len(model) > 0
			stepExpected()
			if e.Step() != had {
				t.Fatalf("Step() = %v with %d modeled events", !had, len(model)+1)
			}
			if had {
				firedID := expected[len(expected)-1]
				// Drop the fired event from the live set.
				for ev, id := range ids {
					if id == firedID {
						delete(ids, ev)
						removeLive(ev)
						break
					}
				}
			}
		}
	}
	// Drain the rest.
	for len(model) > 0 {
		stepExpected()
		if !e.Step() {
			t.Fatal("engine drained before the model")
		}
	}
	if e.Step() {
		t.Fatal("engine still pending after the model drained")
	}
	if len(fired) != len(expected) {
		t.Fatalf("fired %d events, model expected %d", len(fired), len(expected))
	}
	for i := range fired {
		if fired[i] != expected[i] {
			t.Fatalf("divergence at event %d: engine fired %d, pure-heap order says %d",
				i, fired[i], expected[i])
		}
	}
}

// TestWheelPendingCount cross-checks Pending against live scheduling
// activity across both tiers.
func TestWheelPendingCount(t *testing.T) {
	e := NewEngine(1)
	evs := make([]*Event, 0, 64)
	for i := 0; i < 64; i++ {
		d := Time(i) * (1 << 16)
		if i%8 == 0 {
			d = Time(1)<<wheelHorizonBits + Time(i)
		}
		evs = append(evs, e.After(d, func() {}))
	}
	if e.Pending() != 64 {
		t.Fatalf("Pending = %d, want 64", e.Pending())
	}
	for i := 0; i < 16; i++ {
		e.Cancel(evs[i*4])
	}
	if e.Pending() != 48 {
		t.Fatalf("Pending after cancels = %d, want 48", e.Pending())
	}
	n := e.RunUntilIdle()
	if n != 48 || e.Pending() != 0 {
		t.Fatalf("fired %d (want 48), Pending = %d", n, e.Pending())
	}
}

// TestPeriodicRingOrdering: a tick re-armed from its own callback
// interleaves with ordinary events in exact (at, seq) order, including
// ties at the same instant.
func TestPeriodicRingOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []string
	const period = 1000
	var tick *Event
	ticks := 0
	tick = e.Schedule(period, func() {
		order = append(order, "tick")
		ticks++
		if ticks < 3 {
			e.Reschedule(tick, e.Now()+period)
		}
	})
	// An event at the same instant as the second tick: the tick's re-arm
	// draws a fresh (larger) seq at fire time, so this event — scheduled
	// earlier — wins the tie, exactly as with a flat heap.
	e.Schedule(2*period, func() { order = append(order, "wheel") })
	e.Schedule(period/2, func() { order = append(order, "early") })
	e.RunUntilIdle()
	want := []string{"early", "tick", "wheel", "tick", "tick"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestPeriodicRingOffCadence: a tick re-armed off its cadence fires at the
// new deadline, and a second ladder with another period interleaves in
// the global (at, seq) order.
func TestPeriodicRingOffCadence(t *testing.T) {
	e := NewEngine(1)
	evFired, otherFired := 0, 0
	var ev *Event
	ev = e.Schedule(1000, func() {
		evFired++
		if evFired == 1 {
			e.Reschedule(ev, e.Now()+777) // off-cadence, within one period
		}
	})
	e.Schedule(500, func() { otherFired++ })
	e.RunUntilIdle()
	if evFired != 2 || otherFired != 1 {
		t.Fatalf("fired ev=%d other=%d, want 2 and 1", evFired, otherFired)
	}
	if e.Now() != 1777 {
		t.Fatalf("Now = %v, want 1777", e.Now())
	}
}

// TestPeriodicRingParkAndRejoin drives the tickless lifecycle: a tick
// re-armed far ahead (the parked stretch) and woken back onto its grid
// from an unrelated event fires ahead of a staggered peer whose next
// deadline is later.
func TestPeriodicRingParkAndRejoin(t *testing.T) {
	e := NewEngine(1)
	var order []int
	var parked *Event
	fires := 0
	parked = e.Schedule(1000, func() {
		order = append(order, 0)
		fires++
		if fires == 1 {
			e.Reschedule(parked, e.Now()+10*1000) // park: 10 periods ahead
		} else {
			e.Reschedule(parked, e.Now()+1000)
		}
	})
	var mate *Event
	mate = e.Schedule(1500, func() {
		order = append(order, 1)
		if e.Now() < 8000 {
			e.Reschedule(mate, e.Now()+1000)
		}
	})
	// Wake the parked ticker early: its next deadline (4300) precedes the
	// peer's (4500).
	e.Schedule(4200, func() { e.Reschedule(parked, 4300) })
	e.Run(9100)
	want := []int{0, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("fired %d times (%v), want %d", len(order), order, len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
}

// TestPeriodicRingCancel cancels staggered ticks at the head and in the
// middle of their ladder.
func TestPeriodicRingCancel(t *testing.T) {
	e := NewEngine(1)
	var evs []*Event
	for i := 0; i < 4; i++ {
		evs = append(evs, e.Schedule(Time(1000+i*250), func() {}))
	}
	if !e.Cancel(evs[2]) || !e.Cancel(evs[0]) { // middle, then head
		t.Fatal("cancel of pending ticks failed")
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	if n := e.RunUntilIdle(); n != 2 {
		t.Fatalf("fired %d, want 2", n)
	}
}
