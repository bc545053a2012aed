package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// fusedRingTrace runs a randomized ticker workload — several same-period
// staggered tickers that mostly re-arm in cadence, occasionally park far
// ahead, die, or get woken back onto their grid by aperiodic noise events
// — and renders the full firing sequence. With rearm each ticker is one
// event re-armed through Reschedule; without it, the same logical schedule
// uses a fresh Schedule per arm. Both traces must be byte-identical:
// sequence-number allocation matches across the variants because every arm
// — Schedule or Reschedule — consumes exactly one.
func fusedRingTrace(seed uint64, rearm bool) string {
	e := NewEngine(seed)
	rng := NewRNG(seed)
	var buf strings.Builder
	horizon := Time(200_000)

	nTick := rng.Intn(4) + 2
	period := Time(rng.Int63n(900) + 100)
	evs := make([]*Event, nTick)
	alive := make([]bool, nTick)
	parkedUntil := make([]Time, nTick)
	offsets := make([]Time, nTick)

	for i := 0; i < nTick; i++ {
		id := i
		offsets[id] = Time(rng.Int63n(int64(period)))
		decide := NewRNG(seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
		alive[id] = true
		var cb func()
		cb = func() {
			fmt.Fprintf(&buf, "t%d@%d\n", id, e.Now())
			parkedUntil[id] = 0
			var next Time
			switch r := decide.Intn(10); {
			case r < 7:
				next = e.Now() + period // in cadence
			case r < 9:
				next = e.Now() + Time(decide.Intn(4)+2)*period // park
				parkedUntil[id] = next
			default:
				alive[id] = false // die: no re-arm
				return
			}
			if rearm {
				e.Reschedule(evs[id], next)
			} else {
				evs[id] = e.Schedule(next, cb)
			}
		}
		evs[id] = e.Schedule(offsets[id], cb)
	}

	// Aperiodic noise, deliberately including instants exactly on ticker
	// grids (same-instant ordering against a re-armed ticker) and wakes of
	// parked tickers (Reschedule of a pending event vs a fresh arm).
	nNoise := rng.Intn(12) + 6
	for j := 0; j < nNoise; j++ {
		id := j
		var at Time
		if rng.Intn(2) == 0 {
			k := rng.Int63n(int64(horizon/period) - 1)
			at = offsets[rng.Intn(nTick)] + Time(k+1)*period
		} else {
			at = Time(rng.Int63n(int64(horizon)) + 1)
		}
		decide := NewRNG(seed ^ (uint64(id)+77)*0x2545f4914f6cdd1d)
		e.Schedule(at, func() {
			fmt.Fprintf(&buf, "n%d@%d\n", id, e.Now())
			if decide.Intn(3) == 0 {
				// Wake a parked ticker back onto its grid mid-stretch.
				v := decide.Intn(nTick)
				if alive[v] && parkedUntil[v] > e.Now()+period {
					g := offsets[v] +
						(e.Now()-offsets[v]+period)/period*period
					parkedUntil[v] = 0
					e.Reschedule(evs[v], g)
				}
			}
		})
	}

	e.Run(horizon)
	fmt.Fprintf(&buf, "end@%d fired=%d\n", e.Now(), e.Stats().Fired)
	return buf.String()
}

// TestFusedRingEquivalence pins that re-arming one event is invisible: the
// firing sequence of tickers re-armed through Reschedule (in cadence,
// parked, woken) is byte-identical to the same logical schedule with a
// fresh Schedule per arm, across randomized cadences, offsets, parks, wakes
// and same-instant noise.
func TestFusedRingEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rearmed := fusedRingTrace(seed, true)
		fresh := fusedRingTrace(seed, false)
		if rearmed != fresh {
			t.Logf("seed %d diverged:\n--- rearmed ---\n%s--- fresh ---\n%s",
				seed, rearmed, fresh)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFusedRearmSameInstantOrder pins the re-arm's sequence semantics: an
// in-cadence re-arm orders the next firing exactly as a fresh Schedule
// would — after events armed for that instant before the re-arm ran, before
// events armed after it.
func TestFusedRearmSameInstantOrder(t *testing.T) {
	e := NewEngine(1)
	var order []string
	const p = Time(100)
	var tick *Event
	tick = e.Schedule(p, func() {
		order = append(order, fmt.Sprintf("tick@%d", e.Now()))
		if e.Now() == p {
			// Armed before the re-arm below: must precede the tick at 2p.
			e.Schedule(2*p, func() { order = append(order, "early@200") })
		}
		if e.Now() < 3*p {
			e.Reschedule(tick, e.Now()+p)
		}
		if e.Now() == p {
			// Armed after the re-arm: must follow the tick at 2p.
			e.Schedule(2*p, func() { order = append(order, "late@200") })
		}
	})
	e.RunUntilIdle()
	want := []string{"tick@100", "early@200", "tick@200", "late@200", "tick@300"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestFusedFireCancelSelf pins Cancel's one rule for a firing event: it is
// no longer pending, so cancelling it from its own callback returns false
// and it dies when the callback returns — released exactly once. A
// callback that re-arms first makes it pending again, and then Cancel
// returns true and releases it, again exactly once. A bystander keeps
// firing throughout.
func TestFusedFireCancelSelf(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var tick *Event
	tick = e.Schedule(10, func() {
		fired++
		if fired == 3 {
			if e.Cancel(tick) {
				t.Fatal("self-cancel of a firing event reported it pending")
			}
			return
		}
		e.Reschedule(tick, e.Now()+10)
	})
	rearmed := 0
	var late *Event
	late = e.Schedule(12, func() {
		rearmed++
		e.Reschedule(late, e.Now()+10)
		if !e.Cancel(late) {
			t.Fatal("cancel of a re-armed firing event reported it not pending")
		}
	})
	other := 0
	var ev *Event
	ev = e.Schedule(15, func() {
		other++
		if other < 6 {
			e.Reschedule(ev, e.Now()+10)
		}
	})
	e.RunUntilIdle()
	if fired != 3 || rearmed != 1 || other != 6 {
		t.Fatalf("fired = %d (want 3), rearmed = %d (want 1), other = %d (want 6)",
			fired, rearmed, other)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after self-cancel", e.Pending())
	}
	st := e.Stats()
	if st.Recycled != 3 || st.Cancelled != 1 {
		t.Fatalf("recycled = %d (want 3: once per event), cancelled = %d (want 1)",
			st.Recycled, st.Cancelled)
	}
	// A double release would put an event on the free list twice, and two
	// fresh events would then share it.
	seen := map[*Event]bool{}
	for i := 0; i < 4; i++ {
		fresh := e.Schedule(e.Now(), func() {})
		if seen[fresh] {
			t.Fatal("an event was released twice: the pool handed it out again")
		}
		seen[fresh] = true
	}
}

// TestFusedFireNoRearmDies pins the third outcome: an event whose callback
// neither re-arms nor cancels is recycled after it fires, and the peers
// scheduled behind it fire on.
func TestFusedFireNoRearmDies(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(10, func() { order = append(order, "once") })
	var ev *Event
	n := 0
	ev = e.Schedule(12, func() {
		n++
		order = append(order, fmt.Sprintf("peer%d", n))
		if n < 3 {
			e.Reschedule(ev, e.Now()+10)
		}
	})
	e.RunUntilIdle()
	want := "[once peer1 peer2 peer3]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}
