package proc

import (
	"sync"
	"testing"
)

// Kill edge cases: the watchdog/abort paths (kernel Shutdown, batch
// teardown) reach processes in every lifecycle state, sometimes more than
// once, so every combination must be an idempotent no-op rather than a
// protocol violation.

func TestKillDuringPark(t *testing.T) {
	released := make(chan struct{})
	p := New(1, "parked", func(h *Handle) {
		defer close(released)
		h.Invoke("req") // killed here: Invoke panics errKilled and unwinds
		t.Error("body continued past a killed Invoke")
	})
	_, done := p.Start()
	if done {
		t.Fatal("finished before parking")
	}
	p.Kill()
	if !p.Done() {
		t.Fatal("Done() = false after Kill")
	}
	<-released // the unwind must actually run (deferred close fires)
}

func TestDoubleKill(t *testing.T) {
	p := New(1, "twice", func(h *Handle) { h.Invoke("req") })
	p.Start()
	p.Kill()
	p.Kill() // second kill of a killed process: no-op
	if !p.Done() {
		t.Fatal("Done() = false after double Kill")
	}
}

func TestKillAfterExit(t *testing.T) {
	p := New(1, "exited", func(h *Handle) {})
	_, done := p.Start()
	if !done {
		t.Fatal("empty body did not finish")
	}
	p.Kill() // killing a finished process: no-op
	p.Kill()
	if !p.Done() {
		t.Fatal("Done() = false after Kill of an exited process")
	}
}

func TestStartAfterKill(t *testing.T) {
	ran := false
	p := New(1, "neverstarted", func(h *Handle) { ran = true })
	p.Kill() // a shutdown can reach a process whose body never launched
	req, done := p.Start()
	if req != nil || !done {
		t.Fatalf("Start after Kill = (%v, %v), want (nil, true)", req, done)
	}
	if ran {
		t.Fatal("Start after Kill ran the body of a dead process")
	}
	p.Kill() // and killing it again stays a no-op
}

// TestKillLifecycleStress drives many processes through the full
// start/park/kill lifecycle concurrently. Each process's own protocol is
// strictly sequential (as in the real engine); the concurrency is across
// processes, which is exactly the shape a parallel batch produces. Run
// under -race this pins the coroutine handoffs and the kill paths.
func TestKillLifecycleStress(t *testing.T) {
	const procs = 64
	const rounds = 50
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				steps := (g + r) % 4
				p := New(g, "stress", func(h *Handle) {
					for i := 0; ; i++ {
						h.Invoke(i)
					}
				})
				req, done := p.Start()
				for i := 0; i < steps && !done; i++ {
					if req == nil {
						t.Error("nil request from a live process")
						return
					}
					req, done = p.Resume(nil)
				}
				p.Kill()
				p.Kill()
				if !p.Done() {
					t.Error("process not done after Kill")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKillNeverStartedStress covers the Start-after-Kill race shape: one
// goroutine owns each process (the protocol is single-threaded per
// process), alternating which side wins.
func TestKillNeverStartedStress(t *testing.T) {
	const rounds = 200
	for r := 0; r < rounds; r++ {
		p := New(r, "late", func(h *Handle) { h.Invoke("x") })
		if r%2 == 0 {
			p.Kill()
			if _, done := p.Start(); !done {
				t.Fatal("killed-then-started process reported alive")
			}
		} else {
			_, done := p.Start()
			if done {
				t.Fatal("live process reported done")
			}
			p.Kill()
		}
	}
}
