package proc

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestLockstepExchange(t *testing.T) {
	p := New(1, "worker", func(h *Handle) {
		for i := 0; i < 3; i++ {
			got := h.Invoke(i)
			if got != i*10 {
				t.Errorf("reply = %v, want %v", got, i*10)
			}
		}
	})
	req, done := p.Start()
	for i := 0; i < 3; i++ {
		if done {
			t.Fatalf("process finished early at step %d", i)
		}
		if req != i {
			t.Fatalf("request = %v, want %v", req, i)
		}
		req, done = p.Resume(i * 10)
	}
	if !done {
		t.Fatal("process did not finish")
	}
	if !p.Done() {
		t.Fatal("Done() = false after completion")
	}
}

func TestEmptyBody(t *testing.T) {
	p := New(1, "empty", func(h *Handle) {})
	req, done := p.Start()
	if !done || req != nil {
		t.Fatalf("Start = (%v, %v), want (nil, true)", req, done)
	}
}

func TestBodyPanicPropagates(t *testing.T) {
	p := New(1, "boom", func(h *Handle) {
		h.Invoke("first")
		panic("kaboom")
	})
	_, done := p.Start()
	if done {
		t.Fatal("finished before panic point")
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic did not propagate to engine side")
		}
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *PanicError", v)
		}
		if pe.Process != "boom" || pe.Value != "kaboom" {
			t.Fatalf("PanicError = %+v", pe)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("Error() = %q", pe.Error())
		}
	}()
	p.Resume(nil)
}

func TestImmediatePanicPropagates(t *testing.T) {
	p := New(1, "early", func(h *Handle) { panic("now") })
	defer func() {
		if recover() == nil {
			t.Fatal("panic in body before first Invoke did not propagate")
		}
	}()
	p.Start()
}

// TestBodyGoexitPropagates pins what a body's runtime.Goexit does: the
// coroutine re-raises it on the engine side, so it ends the goroutine that
// called Resume — without a panic, and without Resume ever reporting a
// normal exit. A later Kill of the abandoned process is a no-op.
func TestBodyGoexitPropagates(t *testing.T) {
	p := New(1, "goexit", func(h *Handle) {
		h.Invoke("first")
		runtime.Goexit()
	})
	var returned bool
	var recovered any
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		defer func() { recovered = recover() }()
		if _, done := p.Start(); done {
			return
		}
		p.Resume(nil)
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Resume returned after the body's Goexit")
	}
	if recovered != nil {
		t.Fatalf("body Goexit surfaced as panic %v, want a Goexit", recovered)
	}
	p.Kill()
	if !p.Done() {
		t.Fatal("Done() = false after Kill")
	}
}

func TestKillUnblocksBody(t *testing.T) {
	reached := make(chan bool, 1)
	p := New(1, "victim", func(h *Handle) {
		defer func() { reached <- true }()
		h.Invoke("block me")
		reached <- false // must not be reached
	})
	_, done := p.Start()
	if done {
		t.Fatal("finished early")
	}
	p.Kill()
	if !<-reached {
		t.Fatal("body continued past Invoke after Kill")
	}
	if !p.Done() {
		t.Fatal("Done() = false after Kill")
	}
	p.Kill() // idempotent
}

func TestKillBeforeStart(t *testing.T) {
	p := New(1, "unborn", func(h *Handle) { t.Error("body ran") })
	p.Kill()
	if !p.Done() {
		t.Fatal("Done() = false after Kill")
	}
}

func TestResumeAfterDonePanics(t *testing.T) {
	p := New(1, "done", func(h *Handle) {})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("Resume on finished process did not panic")
		}
	}()
	p.Resume(nil)
}

func TestStartTwicePanics(t *testing.T) {
	p := New(1, "dup", func(h *Handle) {})
	p.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	p.Start()
}

func TestNilBodyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil body) did not panic")
		}
	}()
	New(1, "nil", nil)
}

func TestManyProcessesInterleaved(t *testing.T) {
	// Drive 10 processes round-robin; each yields its ID 5 times. The
	// engine-observed sequence must be exactly round-robin: lock-step
	// means no goroutine can "run ahead".
	const n, rounds = 10, 5
	procs := make([]*Process, n)
	for i := 0; i < n; i++ {
		id := i
		procs[i] = New(id, "p", func(h *Handle) {
			for r := 0; r < rounds; r++ {
				h.Invoke(id)
			}
		})
	}
	var seen []int
	reqs := make([]Request, n)
	for i, p := range procs {
		req, done := p.Start()
		if done {
			t.Fatal("finished early")
		}
		reqs[i] = req
	}
	for r := 0; r < rounds; r++ {
		for i, p := range procs {
			seen = append(seen, reqs[i].(int))
			req, done := p.Resume(nil)
			if done != (r == rounds-1) {
				t.Fatalf("round %d proc %d done=%v", r, i, done)
			}
			reqs[i] = req
		}
	}
	for k, v := range seen {
		if v != k%n {
			t.Fatalf("interleaving broken at %d: got %d want %d", k, v, k%n)
		}
	}
}

func TestMetadata(t *testing.T) {
	p := New(7, "meta", func(h *Handle) {
		if h.Process().ID() != 7 || h.Process().Name() != "meta" {
			t.Error("handle metadata mismatch")
		}
	})
	p.Start()
	if p.ID() != 7 || p.Name() != "meta" {
		t.Fatalf("ID/Name = %d/%q", p.ID(), p.Name())
	}
}

// TestHandoffAllocFree pins the zero-allocation contract of the coroutine
// handoff: a warm Invoke/Resume round trip allocates nothing on either side
// — the request travels as the yielded value, the reply through the
// per-process field, and the switch itself is the runtime's coroswitch.
func TestHandoffAllocFree(t *testing.T) {
	p := New(1, "hot", func(h *Handle) {
		for {
			if h.Invoke(nil) == "stop" {
				return
			}
		}
	})
	if _, done := p.Start(); done {
		t.Fatal("finished early")
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, done := p.Resume(nil); done {
			t.Fatal("finished mid-measurement")
		}
	})
	if allocs > 0.01 {
		t.Fatalf("handoff allocates %.4f objects, want 0", allocs)
	}
	p.Resume("stop")
}

// BenchmarkHandoff measures the unit cost of one warm Invoke/Resume round
// trip: two coroutine switches and the reply-field exchange.
func BenchmarkHandoff(b *testing.B) {
	p := New(1, "bench", func(h *Handle) {
		for h.Invoke(nil) == nil {
		}
	})
	p.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Resume(nil)
	}
	b.StopTimer()
	p.Kill()
}

// TestKillResumeRaceStress drives many processes with randomized
// Resume/Kill interleavings under the race detector: every reply-field
// access must be ordered by the coroutine switches alone, and a Kill at
// any point of a body's life must unwind it cleanly.
func TestKillResumeRaceStress(t *testing.T) {
	const procs, rounds = 32, 200
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		alive := make([]*Process, 0, procs)
		for i := 0; i < procs; i++ {
			depth := rng.Intn(5)
			p := New(i, fmt.Sprintf("p%d", i), func(h *Handle) {
				for j := 0; j <= depth; j++ {
					h.Invoke(j)
				}
			})
			if _, done := p.Start(); !done {
				alive = append(alive, p)
			}
		}
		// Randomized schedule: resume or kill a random live process until
		// none remain.
		for len(alive) > 0 {
			i := rng.Intn(len(alive))
			p := alive[i]
			var done bool
			if rng.Intn(4) == 0 {
				p.Kill()
				done = true
			} else {
				_, done = p.Resume(nil)
			}
			if done {
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
			}
		}
	}
}

// TestConcurrentProcessPairs runs independent engine/process pairs on
// parallel goroutines: the lock-step protocol is per-process, so separate
// processes must not interfere through shared code paths.
func TestConcurrentProcessPairs(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := New(g, "pair", func(h *Handle) {
				for i := 0; i < 500; i++ {
					if got := h.Invoke(i); got != i*3 {
						panic(fmt.Sprintf("reply %v, want %d", got, i*3))
					}
				}
			})
			req, done := p.Start()
			for !done {
				req, done = p.Resume(req.(int) * 3)
			}
		}(g)
	}
	wg.Wait()
}

// chanMsgKind tags a message of the channel reference implementation.
type chanMsgKind uint8

const (
	chanRequest chanMsgKind = iota // body → engine: service request
	chanReply                      // engine → body: answer to the request
	chanExit                       // body → engine: body returned
	chanPanic                      // body → engine: body panicked
	chanKill                       // engine → body: unwind
)

type chanMsg struct {
	kind chanMsgKind
	req  Request
	val  any
}

// chanProcess is a minimal reference implementation of the Process
// protocol over a plain unbuffered channel — the original goroutine
// design. The equivalence test drives it and the real Process with
// identical scripts and compares every observable.
type chanProcess struct {
	ch   chan chanMsg
	done bool
}

func newChanProcess(body func(invoke func(Request) any)) *chanProcess {
	p := &chanProcess{ch: make(chan chanMsg)}
	go func() {
		defer func() {
			if v := recover(); v != nil {
				if v == "chan-killed" {
					return
				}
				p.ch <- chanMsg{kind: chanPanic, val: v}
				return
			}
			p.ch <- chanMsg{kind: chanExit}
		}()
		body(func(req Request) any {
			p.ch <- chanMsg{kind: chanRequest, req: req}
			m := <-p.ch
			if m.kind == chanKill {
				panic("chan-killed")
			}
			return m.val
		})
	}()
	return p
}

func (p *chanProcess) next() (Request, bool) {
	m := <-p.ch
	switch m.kind {
	case chanExit:
		p.done = true
		return nil, true
	case chanRequest:
		return m.req, false
	default:
		panic("unexpected message")
	}
}

func (p *chanProcess) resume(reply any) (Request, bool) {
	p.ch <- chanMsg{kind: chanReply, val: reply}
	return p.next()
}

func (p *chanProcess) kill() {
	if !p.done {
		p.done = true
		p.ch <- chanMsg{kind: chanKill}
	}
}

// TestChannelEquivalence mirrors the event store's pure-heap test at the proc
// layer: random request/reply/kill scripts must observe identical request
// streams, replies and completion points from the coroutine-based Process
// and the channel-based reference.
func TestChannelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(8) + 1
		replies := make([]int, n)
		for i := range replies {
			replies[i] = rng.Int()
		}
		killAt := -1
		if rng.Intn(3) == 0 {
			killAt = rng.Intn(n)
		}

		type obs struct {
			reqs    []int
			replies []any
			doneAt  int
		}
		runBody := func(invoke func(Request) any, got *obs) {
			for i := 0; i < n; i++ {
				got.replies = append(got.replies, invoke(i*7))
			}
		}

		var real, ref obs
		real.doneAt, ref.doneAt = -1, -1

		p := New(trial, "real", func(h *Handle) { runBody(h.Invoke, &real) })
		req, done := p.Start()
		for step := 0; !done; step++ {
			real.reqs = append(real.reqs, req.(int))
			if step == killAt {
				p.Kill()
				break
			}
			req, done = p.Resume(replies[step])
			if done {
				real.doneAt = step
			}
		}

		c := newChanProcess(func(invoke func(Request) any) { runBody(invoke, &ref) })
		req, done = c.next()
		for step := 0; !done; step++ {
			ref.reqs = append(ref.reqs, req.(int))
			if step == killAt {
				c.kill()
				break
			}
			req, done = c.resume(replies[step])
			if done {
				ref.doneAt = step
			}
		}

		if fmt.Sprint(real.reqs) != fmt.Sprint(ref.reqs) {
			t.Fatalf("trial %d: requests diverge: %v vs %v", trial, real.reqs, ref.reqs)
		}
		if real.doneAt != ref.doneAt {
			t.Fatalf("trial %d: completion diverges: %d vs %d", trial, real.doneAt, ref.doneAt)
		}
		// Replies observed by the killed bodies may be cut short at the
		// same point; compare the common prefix plus length.
		if killAt < 0 && fmt.Sprint(real.replies) != fmt.Sprint(ref.replies) {
			t.Fatalf("trial %d: replies diverge", trial)
		}
	}
}
