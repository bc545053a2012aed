package sim

import (
	"math/rand"
	"testing"
)

// FuzzEventStore decodes bytes into engine operations — schedules at
// level-0, level-1, level-2 and overflow-heap distances or on the deadline
// of a pending event (a same-instant tie across tiers), re-arms from the
// callback, parks far ahead and wakes back onto a grid, cancels (of
// pending events, of the firing event itself, of an event re-armed from
// its own callback) and events left to die — and checks every firing
// against a reference model that pops the pending minimum by (at, seq),
// and NextEventAt after every operation against the model's earliest
// pending deadline.
// The corpus seeds are byte streams drawn from the seeds of
// TestWheelDeterminismVsPureHeap and TestHeapStressVsReference (7) and of
// the engine in every test (1).
//
//	go test -run '^$' -fuzz FuzzEventStore -fuzztime 20s ./internal/sim
func FuzzEventStore(f *testing.F) {
	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{64, 512, 4096, 16384} {
			b := make([]byte, n)
			rng.Read(b)
			f.Add(b)
		}
	}
	f.Fuzz(checkEventStore)
}

// fuzzOps is the operation stream; once exhausted it reads zeros, which
// decode to "die" in a callback, so the final drain ends.
type fuzzOps struct {
	b []byte
	i int
}

func (r *fuzzOps) byte() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

func (r *fuzzOps) u16() Time { return Time(r.byte())<<8 | Time(r.byte()) }

// distance decodes a deadline distance aimed at one tier of the store, or
// reports tie when the deadline should be that of a pending event.
func (r *fuzzOps) distance() (d Time, tie bool) {
	x := r.u16()
	span := func(lo, hi Time) Time { return lo + x*((hi-lo)>>16) }
	switch r.byte() % 6 {
	case 0:
		return 0, false // same instant
	case 1:
		return span(0, 1<<wheelShift(1)), false // level 0
	case 2:
		return span(1<<wheelShift(1), 1<<wheelShift(2)), false // level 1
	case 3:
		return span(1<<wheelShift(2), 1<<wheelHorizonBits), false // level 2
	case 4:
		return span(1<<wheelHorizonBits, 1<<(wheelHorizonBits+1)), false // heap
	default:
		return 0, true
	}
}

// fuzzEvent is the model's view of one engine event.
type fuzzEvent struct {
	ev      *Event
	id      int
	at      Time
	seq     uint64
	base    Time // first deadline: the event's grid origin
	period  Time
	pending bool
	parked  bool
}

func checkEventStore(t *testing.T, data []byte) {
	r := &fuzzOps{b: data}
	e := NewEngine(1)
	var (
		all   []*fuzzEvent
		seq   uint64 // mirrors the engine's sequence counter
		fired int
	)
	pendingEvents := func() []*fuzzEvent {
		var p []*fuzzEvent
		for _, x := range all {
			if x.pending {
				p = append(p, x)
			}
		}
		return p
	}
	pick := func() *fuzzEvent {
		p := pendingEvents()
		if len(p) == 0 {
			return nil
		}
		return p[int(r.byte())%len(p)]
	}
	minPending := func() *fuzzEvent {
		var best *fuzzEvent
		for _, x := range all {
			if x.pending && (best == nil || x.at < best.at ||
				x.at == best.at && x.seq < best.seq) {
				best = x
			}
		}
		return best
	}
	// checkNext holds NextEventAt — the cluster calendar's probe — to the
	// model's earliest pending deadline.
	checkNext := func() {
		want := MaxTime
		if m := minPending(); m != nil {
			want = m.at
		}
		if got := e.NextEventAt(); got != want {
			t.Fatalf("NextEventAt() = %v, the model's earliest pending deadline is %v", got, want)
		}
	}
	// deadline decodes an absolute deadline: a distance from now, or the
	// deadline of a pending event, whichever tier that event sits in.
	deadline := func() Time {
		d, tie := r.distance()
		if tie {
			if y := pick(); y != nil {
				return y.at
			}
		}
		return e.Now() + d
	}
	rearm := func(x *fuzzEvent, at Time) {
		e.Reschedule(x.ev, at)
		seq++
		x.at, x.seq, x.pending = at, seq, true
	}
	cancel := func(x *fuzzEvent, want bool) {
		if got := e.Cancel(x.ev); got != want {
			t.Fatalf("Cancel(event %d) = %v, want %v", x.id, got, want)
		}
		x.pending = false
	}
	var arm func(at Time)
	arm = func(at Time) {
		x := &fuzzEvent{id: len(all), at: at, base: at}
		x.period = (1 + r.u16()) << (r.byte() % 8)
		all = append(all, x)
		x.ev = e.Schedule(at, func() {
			if m := minPending(); m != x || e.Now() != x.at {
				t.Fatalf("fired event %d at %v; the model's (at, seq) minimum is %+v",
					x.id, e.Now(), m)
			}
			x.pending = false
			fired++
			now := e.Now()
			switch r.byte() % 8 {
			case 0: // die
			case 1: // re-arm in cadence
				x.parked = false
				rearm(x, now+x.period)
			case 2: // park far ahead, sometimes past the wheel horizon
				d := x.period * Time(2+r.byte())
				if r.byte()%4 == 0 {
					d += 1 << wheelHorizonBits
				}
				x.parked = true
				rearm(x, now+d)
			case 3: // self-cancel: not pending, so false, and the event dies
				cancel(x, false)
			case 4: // re-arm, then cancel the now-pending event
				rearm(x, now+x.period)
				cancel(x, true)
			case 5: // schedule a new event; this one dies
				arm(deadline())
			case 6: // wake a parked event onto its grid, then re-arm
				if y := pick(); y != nil && y.parked {
					g := y.base + (now-y.base+y.period-1)/y.period*y.period
					if g < y.at {
						y.parked = false
						rearm(y, g)
					}
				}
				rearm(x, now+x.period)
			default: // cancel another pending event, then re-arm
				if y := pick(); y != nil {
					cancel(y, true)
				}
				rearm(x, now+x.period)
			}
			checkNext()
		})
		seq++
		x.seq, x.pending = seq, true
	}

	for r.i < len(r.b) {
		switch r.byte() % 6 {
		case 0, 1:
			arm(deadline())
		case 2: // re-arm a pending event
			if x := pick(); x != nil {
				x.parked = false
				rearm(x, deadline())
			}
		case 3:
			if x := pick(); x != nil {
				cancel(x, true)
			}
		default:
			if had := len(pendingEvents()) > 0; e.Step() != had {
				t.Fatalf("Step() = %v with %d pending in the model", !had, len(pendingEvents()))
			}
		}
		if n := len(pendingEvents()); e.Pending() != n {
			t.Fatalf("Pending() = %d, model has %d", e.Pending(), n)
		}
		checkNext()
	}
	for e.Step() {
		checkNext()
	}
	if n := len(pendingEvents()); n != 0 || e.Pending() != 0 {
		t.Fatalf("drained engine with %d pending in the model, Pending() = %d", n, e.Pending())
	}
	if st := e.Stats(); st.Fired != uint64(fired) {
		t.Fatalf("Stats().Fired = %d, model fired %d", st.Fired, fired)
	}
}
