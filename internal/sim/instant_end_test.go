package sim

import (
	"fmt"
	"strings"
	"testing"
)

// instantLog records firings and hook runs as "name@time" entries.
type instantLog []string

func (l *instantLog) add(e *Engine, name string) {
	*l = append(*l, fmt.Sprintf("%s@%d", name, e.Now()))
}

func (l instantLog) String() string { return strings.Join(l, " ") }

// TestInstantEndRunsOnceAfterTheInstant: the hook runs once per instant at
// which it was requested, however often, after the instant's last event —
// including events scheduled for the same instant after the request — and
// before any event of a later instant. Instants without a request do not
// run it.
func TestInstantEndRunsOnceAfterTheInstant(t *testing.T) {
	e := NewEngine(1)
	var log instantLog
	e.OnInstantEnd(func() { log.add(e, "hook") })
	e.Schedule(10, func() {
		log.add(e, "a")
		e.RequestInstantEnd()
		e.Schedule(10, func() { log.add(e, "c"); e.RequestInstantEnd() })
	})
	e.Schedule(10, func() { log.add(e, "b"); e.RequestInstantEnd() })
	e.Schedule(20, func() { log.add(e, "d") })
	e.Schedule(30, func() { log.add(e, "e"); e.RequestInstantEnd() })
	e.Run(MaxTime)
	want := "a@10 b@10 c@10 hook@10 d@20 e@30 hook@30"
	if got := log.String(); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestInstantEndMayScheduleNow: events the hook schedules at the current
// instant fire before the clock moves, and a request they make runs the
// hook again at that instant.
func TestInstantEndMayScheduleNow(t *testing.T) {
	e := NewEngine(1)
	var log instantLog
	runs := 0
	e.OnInstantEnd(func() {
		runs++
		log.add(e, "hook")
		if runs == 1 {
			e.Schedule(e.Now(), func() { log.add(e, "late"); e.RequestInstantEnd() })
		}
	})
	e.Schedule(5, func() { log.add(e, "a"); e.RequestInstantEnd() })
	e.Schedule(6, func() { log.add(e, "b") })
	e.Run(MaxTime)
	want := "a@5 hook@5 late@5 hook@5 b@6"
	if got := log.String(); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestInstantEndBeforeRunReturns: Run never returns at its horizon with a
// request pending — whether the next event lies past the horizon, the
// queue drained, or the last event sat exactly on the horizon — so
// NextEventAt after Run reflects what the hook did.
func TestInstantEndBeforeRunReturns(t *testing.T) {
	for _, c := range []struct {
		name      string
		at, until Time
		next      bool // an event lies past the horizon
	}{
		{"next-past-horizon", 5, 20, true},
		{"drained", 5, 20, false},
		{"on-horizon", 20, 20, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			var moved *Event
			if c.next {
				moved = e.Schedule(100, func() {})
			}
			ran := false
			e.OnInstantEnd(func() {
				ran = true
				if e.Now() != c.at {
					t.Errorf("hook ran at %d, want %d", e.Now(), c.at)
				}
				if moved != nil {
					e.Reschedule(moved, 50)
				}
			})
			e.Schedule(c.at, func() { e.RequestInstantEnd() })
			e.Run(c.until)
			if !ran {
				t.Fatal("Run returned with the request pending")
			}
			if e.Now() != c.until {
				t.Fatalf("clock %d after Run, want %d", e.Now(), c.until)
			}
			want := MaxTime
			if c.next {
				want = 50
			}
			if got := e.NextEventAt(); got != want {
				t.Fatalf("NextEventAt %d after Run, want %d (the hook's re-arm)", got, want)
			}
		})
	}
}

// TestInstantEndNotAfterStop: a Stop (or interrupt) ends Run without the
// hook; the request stays pending, and the next Run honours it before
// firing anything at a later instant.
func TestInstantEndNotAfterStop(t *testing.T) {
	e := NewEngine(1)
	var log instantLog
	e.OnInstantEnd(func() { log.add(e, "hook") })
	e.Schedule(5, func() { log.add(e, "a"); e.RequestInstantEnd(); e.Stop() })
	e.Schedule(9, func() { log.add(e, "b") })
	e.Run(MaxTime)
	if got := log.String(); got != "a@5" {
		t.Fatalf("after Stop: %q, want %q", got, "a@5")
	}
	if e.Now() != 5 {
		t.Fatalf("clock %d after Stop, want 5", e.Now())
	}
	e.Run(MaxTime)
	if got, want := log.String(), "a@5 hook@5 b@9"; got != want {
		t.Fatalf("after the second Run: %q, want %q", got, want)
	}

	// An interrupt stops Run the same way.
	e = NewEngine(1)
	log = nil
	e.OnInstantEnd(func() { log.add(e, "hook") })
	e.SetInterrupt(1, func() bool { return true })
	e.Schedule(5, func() { log.add(e, "a"); e.RequestInstantEnd() })
	e.Schedule(9, func() { log.add(e, "b") })
	e.Run(MaxTime)
	if got := log.String(); got != "a@5" {
		t.Fatalf("after the interrupt: %q, want %q", got, "a@5")
	}
}

// TestInstantEndStep: Step honours a pending request before it fires an
// event at a later instant (or reports an empty queue), and not while the
// instant still has events.
func TestInstantEndStep(t *testing.T) {
	e := NewEngine(1)
	var log instantLog
	e.OnInstantEnd(func() { log.add(e, "hook") })
	e.Schedule(5, func() { log.add(e, "a"); e.RequestInstantEnd() })
	e.Schedule(5, func() { log.add(e, "b") })
	e.Schedule(7, func() { log.add(e, "c"); e.RequestInstantEnd() })
	want := []string{"a@5", "a@5 b@5", "a@5 b@5 hook@5 c@7"}
	for i, w := range want {
		if !e.Step() {
			t.Fatalf("step %d: queue empty", i)
		}
		if got := log.String(); got != w {
			t.Fatalf("step %d: %q, want %q", i, got, w)
		}
	}
	if e.Step() {
		t.Fatal("Step fired an event from a drained queue")
	}
	if got, w := log.String(), "a@5 b@5 hook@5 c@7 hook@7"; got != w {
		t.Fatalf("final Step: %q, want %q", got, w)
	}
	// RunUntilIdle goes through Step.
	e.Schedule(8, func() { log.add(e, "d"); e.RequestInstantEnd() })
	e.RunUntilIdle()
	if got, w := log.String(), "a@5 b@5 hook@5 c@7 hook@7 d@8 hook@8"; got != w {
		t.Fatalf("RunUntilIdle: %q, want %q", got, w)
	}
}
