package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	n := e.RunUntilIdle()
	if n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestScheduleAtNowRunsAfterCurrent(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(5, func() {
		order = append(order, "outer")
		e.Schedule(5, func() { order = append(order, "inner") })
	})
	e.RunUntilIdle()
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	e.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.Schedule(5, nil)
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(10, func() {})
	e.RunUntilIdle()
	if e.Cancel(ev) {
		t.Fatal("Cancel of fired event returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.Schedule(Time(i*10), func() { fired = append(fired, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		e.Cancel(evs[i])
	}
	e.RunUntilIdle()
	for _, v := range fired {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(fired) != 13 {
		t.Fatalf("fired %d events, want 13", len(fired))
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	n := e.Run(25)
	if n != 2 {
		t.Fatalf("Run(25) fired %d, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25 (clock advances to horizon)", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	n = e.Run(MaxTime)
	if n != 2 || e.Now() != 40 {
		t.Fatalf("second Run fired %d at %v, want 2 at 40", n, e.Now())
	}
}

func TestRunHorizonInclusive(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(25, func() { fired = true })
	e.Run(25)
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	n := e.RunUntilIdle()
	if n != 2 || count != 2 {
		t.Fatalf("Stop did not halt the loop: fired=%d count=%d", n, count)
	}
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after Stop, want 3", e.Pending())
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {
		e.After(50, func() {
			if e.Now() != 150 {
				t.Errorf("After fired at %v, want 150", e.Now())
			}
		})
	})
	e.RunUntilIdle()
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestPeekNext(t *testing.T) {
	e := NewEngine(1)
	if e.NextEventAt() != MaxTime {
		t.Fatal("NextEventAt on empty queue should be MaxTime")
	}
	e.Schedule(42, func() {})
	if e.NextEventAt() != 42 {
		t.Fatalf("NextEventAt = %v, want 42", e.NextEventAt())
	}
}

func TestStats(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	e.Cancel(ev)
	e.RunUntilIdle()
	s := e.Stats()
	if s.Scheduled != 2 || s.Fired != 1 || s.Cancelled != 1 || s.Pending != 0 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.Now != 20 {
		t.Fatalf("Stats.Now = %v, want 20", s.Now)
	}
}

func TestTimeFormatting(t *testing.T) {
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Fatalf("String = %q", s)
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion wrong")
	}
	if (3 * Millisecond).Milliseconds() != 3.0 {
		t.Fatal("Milliseconds conversion wrong")
	}
}

// Property: an arbitrary batch of events fires in nondecreasing time order,
// with ties broken by insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		e := NewEngine(7)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, v := range raw {
			at := Time(v)
			i := i
			e.Schedule(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.RunUntilIdle()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine is deterministic — identical schedules produce
// identical firing sequences.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := NewEngine(seed)
		var out []uint64
		var step func()
		step = func() {
			out = append(out, e.RNG().Uint64())
			if len(out) < 50 {
				e.After(Time(e.RNG().Int63n(1000)+1), step)
			}
		}
		e.Schedule(0, step)
		e.RunUntilIdle()
		return out
	}
	a, b := run(123), run(123)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at step %d", i)
		}
	}
	c := run(124)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}
