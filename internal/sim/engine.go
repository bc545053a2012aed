// Package sim provides the deterministic discrete-event simulation engine
// underlying the whole reproduction: a virtual nanosecond clock, a
// cancellable event queue and a seeded pseudo-random number generator.
//
// Determinism contract: two engines constructed with the same seed and fed
// the same sequence of Schedule calls execute callbacks in exactly the same
// order. Events that fire at the same virtual instant are ordered by their
// scheduling sequence number, so "ties" are never resolved by map iteration
// order or goroutine scheduling.
//
// Performance contract: the hot path is allocation-free in steady state.
// Events are engine-owned and recycled through a free list — an event that
// has fired (and was not re-armed from its own callback via Reschedule) or
// has been cancelled returns to the pool and may back a later Schedule
// call. Holders must therefore treat an *Event as dead once it fired or was
// cancelled: clear the reference and never pass it to Cancel again, or an
// unrelated recycled event may be cancelled in its place. Every holder in
// this repository follows that discipline (see sched.Task.finishEv).
//
// The pending-event store has two tiers: a hierarchical timer wheel
// (wheel.go) absorbs every deadline within ~17 s of the clock — scheduler
// ticks and RR re-arms through Reschedule, burst completions, message
// deliveries, same-instant scheduling passes — at O(1) per operation, and
// a flat 4-ary indexed min-heap holds the rare far-future deadlines.
// Step/Run take the global (at, seq) minimum across the two, so firing
// order is identical to a single heap.
package sim

import (
	"fmt"
	"math"
)

// Time is a virtual time stamp in nanoseconds since the start of the
// simulation. It is a distinct type so that wall-clock time.Duration values
// cannot be mixed in accidentally.
type Time int64

// Common durations, mirroring time.Duration constants but in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time. It is used as an
// "infinitely far in the future" sentinel for deadlines.
const MaxTime Time = math.MaxInt64

// Seconds converts a virtual time stamp to seconds as a float64, primarily
// for reporting.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts a virtual time stamp to milliseconds as a float64.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the time as seconds with microsecond resolution.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a scheduled callback. Events are single-shot unless re-armed
// with Reschedule from their own callback; a fired or cancelled event is
// recycled by the engine and must not be touched afterwards.
type Event struct {
	at       Time
	seq      uint64
	schedAt  Time // instant the event was (re)armed — see FiringScheduledAt
	do       func()
	index    int32 // position in the overflow heap, -1 when not in the heap
	slot     int32 // level<<8|slot in the timer wheel, -1 when not in the wheel
	canceled bool
	pooled   bool   // on the free list (dead until reacquired)
	next     *Event // free-list link while pooled, slot-list link while wheeled
	prev     *Event // slot-list back link (O(1) unlink for Cancel/Reschedule)
}

// At returns the virtual time the event is (or was) scheduled for.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel was called on the event. Only meaningful
// until the engine recycles the event for a later Schedule.
func (e *Event) Canceled() bool { return e.canceled }

// queued reports whether the event sits in either tier (wheel or heap).
func (e *Event) queued() bool { return e.index >= 0 || e.slot >= 0 }

// initialQueueCapacity pre-sizes the overflow heap so simulations with many
// far-future deadlines never grow it; poolChunk is how many events each pool
// refill allocates in one contiguous block (good locality, amortised
// allocation).
const (
	initialQueueCapacity = 256
	poolChunk            = 128
)

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use: all interaction must happen from the goroutine driving
// Run/Step (simulated processes hand control back and forth in lock-step via
// the proc package, so this is never a limitation in practice).
type Engine struct {
	now      Time
	wheel    timerWheel
	heap     eventQueue // far-future overflow (beyond the wheel horizon)
	seq      uint64
	rng      *RNG
	stopped  bool
	firingAt Time   // schedAt of the event whose callback is running
	free     *Event // event free list (recycled events)

	// Interrupt polling (SetInterrupt): intrFn is consulted every intrEvery
	// fired events from inside Run's loop. nil means no polling — the hot
	// loop pays a single pointer test per event and nothing else.
	intrFn    func() bool
	intrEvery int
	intrLeft  int

	// Instant-end hook (OnInstantEnd): endFn runs once the current instant
	// has no event left, before the clock moves on, whenever endPending
	// was set (RequestInstantEnd) during it.
	endFn      func()
	endPending bool

	// Stats counters, exported via Stats.
	scheduled uint64
	fired     uint64
	cancelled uint64
	recycled  uint64
}

// NewEngine returns an engine with the clock at zero and the RNG seeded with
// seed. The event queues and pool are pre-sized so typical simulations never
// allocate on the scheduling hot path.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: NewRNG(seed)}
	e.heap.items = make([]heapItem, 0, initialQueueCapacity)
	return e
}

// acquire takes an event from the free list, refilling it with a contiguous
// chunk when empty.
func (e *Engine) acquire() *Event {
	if e.free == nil {
		chunk := make([]Event, poolChunk)
		for i := range chunk {
			chunk[i].index = -1
			chunk[i].slot = -1
			chunk[i].pooled = true
			chunk[i].next = e.free
			e.free = &chunk[i]
		}
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	ev.prev = nil
	ev.pooled = false
	ev.canceled = false
	ev.index = -1
	ev.slot = -1
	return ev
}

// release returns a dead event to the free list.
func (e *Engine) release(ev *Event) {
	ev.do = nil // drop the callback reference
	ev.pooled = true
	ev.next = e.free
	e.free = ev
	e.recycled++
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// FiringScheduledAt returns the instant at which the event whose callback
// is currently running was (last re-)armed. A tickless consumer uses it to
// reconstruct, for a tick it removed from the queue, whether that tick
// would have fired before or after the running event: the virtual tick's
// seq dates from its arming one period before its deadline, so it orders
// before exactly those same-instant events that were armed later.
func (e *Engine) FiringScheduledAt() Time { return e.firingAt }

// RNG returns the engine's deterministic random number generator.
func (e *Engine) RNG() *RNG { return e.rng }

// enqueue routes ev to its tier: the timer wheel when the deadline lies
// within the wheel horizon of the wheel reference, the overflow heap
// otherwise.
func (e *Engine) enqueue(ev *Event) {
	diff := uint64(ev.at ^ e.wheel.time)
	if diff>>wheelHorizonBits == 0 {
		e.wheel.insertDiff(ev, diff)
	} else {
		e.heap.push(ev)
	}
}

// dequeue removes a pending event from whichever tier holds it.
func (e *Engine) dequeue(ev *Event) {
	if ev.slot >= 0 {
		e.wheel.remove(ev)
	} else {
		e.heap.remove(int(ev.index))
	}
}

// Schedule registers do to run at virtual time at. Scheduling in the past
// (at < Now) panics: it always indicates a model bug, and silently clamping
// would mask it. Scheduling exactly at Now is allowed and the event runs
// after all earlier-scheduled events for the same instant.
func (e *Engine) Schedule(at Time, do func()) *Event {
	if do == nil {
		panic("sim: Schedule with nil callback")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: at=%v now=%v", at, e.now))
	}
	e.seq++
	e.scheduled++
	ev := e.acquire()
	ev.at = at
	ev.seq = e.seq
	ev.schedAt = e.now
	ev.do = do
	e.enqueue(ev)
	return ev
}

// After is shorthand for Schedule(Now()+d, do).
func (e *Engine) After(d Time, do func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, do)
}

// SchedulePeriodic is Schedule for an event its callback re-arms every
// period via Reschedule.
//
// Deprecated: the engine no longer keeps a tier for fixed-cadence events;
// use Schedule. Only the period check remains.
func (e *Engine) SchedulePeriodic(at, period Time, do func()) *Event {
	if period <= 0 {
		panic(fmt.Sprintf("sim: SchedulePeriodic with period %v", period))
	}
	return e.Schedule(at, do)
}

// Reschedule re-arms ev — keeping its callback — to fire at at, as if it
// had just been passed to Schedule: it receives a fresh sequence number, so
// it orders after everything already scheduled for the same instant.
// Periodic work (scheduler ticks, load-balance timers) re-arms one event
// from its own callback instead of allocating an event and a closure per
// period. Re-arming from the callback hits the wheel's O(1) insert: the
// event was just removed, the reference time equals the firing instant, and
// any periodic deadline within the horizon lands in a slot directly.
//
// ev may be pending (it is moved between tiers as needed) or mid-fire (its
// callback is running: it is re-queued and will not be recycled when the
// callback returns). It must not be dead — fired without re-arming, or
// cancelled — since dead events are recycled and may already back an
// unrelated Schedule.
func (e *Engine) Reschedule(ev *Event, at Time) {
	if ev == nil || ev.pooled || ev.do == nil {
		panic("sim: Reschedule of a dead (fired or cancelled) event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: rescheduling in the past: at=%v now=%v", at, e.now))
	}
	e.seq++
	e.scheduled++
	if ev.queued() {
		e.dequeue(ev)
	}
	ev.at = at
	ev.seq = e.seq
	ev.schedAt = e.now
	e.enqueue(ev)
}

// Cancel removes a pending event. Returns true if the event was pending and
// is now guaranteed not to fire. The event is recycled: the caller must
// clear its reference.
//
// An event whose callback is running is no longer pending — fire dequeues
// it first — so cancelling it from its own callback returns false and does
// nothing: the event dies when the callback returns unless the callback
// re-arms it with Reschedule (and a re-armed event is pending again).
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.canceled || !ev.queued() {
		return false
	}
	ev.canceled = true
	e.dequeue(ev)
	e.cancelled++
	e.release(ev)
	return true
}

// Pending returns the number of events currently queued.
func (e *Engine) Pending() int { return e.wheel.count + len(e.heap.items) }

// findMin returns the earliest pending event across both tiers — wheel
// levels are strictly ordered among themselves, so this is one wheel
// lookup plus one (at, seq) comparison against the heap top — or nil.
func (e *Engine) findMin() *Event {
	ev := e.wheel.min()
	if len(e.heap.items) > 0 {
		top := e.heap.items[0].ev
		if ev == nil || eventLess(top, ev) {
			ev = top
		}
	}
	return ev
}

// NextEventAt reports the earliest instant at which this engine can next
// act: the minimum pending deadline across both tiers (wheel minimum,
// heap top), or MaxTime when the engine is drained. It is the
// conservative-lookahead probe for PDES pacing (internal/cluster): between
// events every rank body is parked in a blocking call with its
// deferred-step queue flushed, so any future cross-engine send must
// originate from an event at or after this instant. Cost is a bitmap scan
// of the wheel's lowest occupied level plus a direct load of the heap top.
func (e *Engine) NextEventAt() Time {
	if ev := e.findMin(); ev != nil {
		return ev.at
	}
	return MaxTime
}

// fire removes ev (the global minimum) from its tier, advances the clock
// and the wheel reference to its deadline, and runs the callback.
func (e *Engine) fire(ev *Event) {
	if ev.at < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	e.dequeue(ev)
	e.wheel.advance(ev.at)
	e.now = ev.at
	e.fired++
	e.firingAt = ev.schedAt
	ev.do()
	// The callback may have re-armed the event (Reschedule) or, in
	// principle, raced it back through the pool; only a still-dead event is
	// recycled.
	if !ev.queued() && !ev.pooled {
		e.release(ev)
	}
}

// OnInstantEnd installs fn as the engine's instant-end hook: after a
// RequestInstantEnd, fn runs once, after the last event of the current
// instant and before the clock leaves it. The hook may schedule events,
// at the current instant too (they fire next, and may request the hook
// again). There is one hook per engine; installing another replaces it.
func (e *Engine) OnInstantEnd(fn func()) { e.endFn = fn }

// RequestInstantEnd asks for the instant-end hook to run at the end of the
// current instant; repeated requests within one instant run it once. Run
// honours the request before it returns at its horizon — so NextEventAt
// after Run reflects what the hook did — and Step before it fires an event
// at a later instant. A Stop (or interrupt) leaves the request pending for
// the next Run or Step.
func (e *Engine) RequestInstantEnd() { e.endPending = true }

// endInstant runs the requested instant-end hook if the instant is over:
// ev, the earliest pending event, lies at a later instant or is nil. It
// reports whether the hook ran, so the caller re-reads the queue.
func (e *Engine) endInstant(ev *Event) bool {
	if ev != nil && ev.at == e.now {
		return false
	}
	e.endPending = false
	e.endFn()
	return true
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false if no events are pending. A pending
// instant-end request runs first when that event lies at a later instant.
func (e *Engine) Step() bool {
	ev := e.findMin()
	if e.endPending && e.endInstant(ev) {
		ev = e.findMin()
	}
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run fires events until the queue drains or the next event lies strictly
// after until; the clock is then advanced to until if it is not MaxTime.
// It returns the number of events fired.
func (e *Engine) Run(until Time) int {
	n := 0
	e.stopped = false
	for !e.stopped {
		ev := e.findMin()
		if e.endPending && e.endInstant(ev) {
			continue
		}
		if ev == nil || ev.at > until {
			break
		}
		e.fire(ev)
		n++
		if e.intrFn != nil && e.pollInterrupt() {
			break
		}
	}
	if !e.stopped && until != MaxTime && e.now < until {
		e.now = until
	}
	return n
}

// RunUntilIdle fires events until none are pending and returns how many
// fired. Simulations that schedule periodic timers must use Run with a
// horizon instead, or Stop from a callback, otherwise this never returns.
func (e *Engine) RunUntilIdle() int {
	n := 0
	e.stopped = false
	for !e.stopped && e.Step() {
		n++
		if e.intrFn != nil && e.pollInterrupt() {
			break
		}
	}
	return n
}

// Stop makes the innermost Run/RunUntilIdle return after the current event
// callback completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the engine was stopped (Stop, or an interrupt
// returning true) rather than running to its horizon or draining the queue.
func (e *Engine) Stopped() bool { return e.stopped }

// SetInterrupt registers fn to be polled from inside Run/RunUntilIdle every
// `every` fired events, on the engine goroutine (so fn may safely inspect
// engine and model state). If fn returns true the engine stops exactly as if
// Stop had been called: the loop exits after the current event, pending
// events remain queued, and the clock is not advanced to the horizon.
//
// This is the cancellation/watchdog hook: a batch runner installs a function
// that checks ctx.Err(), a wall-clock deadline or an abort flag, and
// publishes a progress snapshot (Now, fired count) for an external liveness
// watchdog. Passing fn == nil removes the hook; with no hook installed the
// run loop pays one nil test per event and nothing else, preserving the
// zero-overhead contract the perf gate pins.
func (e *Engine) SetInterrupt(every int, fn func() bool) {
	if fn != nil && every <= 0 {
		panic(fmt.Sprintf("sim: SetInterrupt with non-positive interval %d", every))
	}
	e.intrFn = fn
	e.intrEvery = every
	e.intrLeft = every
}

// pollInterrupt runs the interrupt hook when its event budget is exhausted;
// it reports whether the engine should stop.
func (e *Engine) pollInterrupt() bool {
	e.intrLeft--
	if e.intrLeft > 0 {
		return false
	}
	e.intrLeft = e.intrEvery
	if e.intrFn() {
		e.stopped = true
		return true
	}
	return false
}

// Stats reports counters about engine activity.
type Stats struct {
	Now       Time
	Scheduled uint64
	Fired     uint64
	Cancelled uint64
	Recycled  uint64
	Pending   int
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Now:       e.now,
		Scheduled: e.scheduled,
		Fired:     e.fired,
		Cancelled: e.cancelled,
		Recycled:  e.recycled,
		Pending:   e.Pending(),
	}
}

// ---------------------------------------------------------------------------
// Flat 4-ary indexed min-heap (far-future overflow tier)
// ---------------------------------------------------------------------------

// eventQueue is a hand-rolled 4-ary min-heap over (at, seq), replacing
// container/heap: no interface dispatch per sift, no boxing through any,
// and a branching factor of 4 halves the tree depth. The (at, seq) keys
// are stored inline in the heap slots, so sift comparisons scan a
// contiguous array instead of chasing *Event pointers into the pool —
// the four children of a node live on two cache lines, not four.
// The heap is indexed (each event knows its slot) so Cancel removes in
// O(log₄ n) without a search. Since the timer wheel absorbs every deadline
// within its horizon, the heap only sees genuinely far-future events and
// stays small.
type eventQueue struct {
	items []heapItem
}

// heapItem is one heap slot: the ordering key, denormalised from the
// event (Reschedule keeps both copies in sync via the event's index).
type heapItem struct {
	at  Time
	seq uint64
	ev  *Event
}

// itemLess orders by (at, seq): earlier deadline first, scheduling order
// breaking ties — the engine's determinism contract.
func itemLess(a, b *heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev *Event) {
	ev.index = int32(len(q.items))
	q.items = append(q.items, heapItem{at: ev.at, seq: ev.seq, ev: ev})
	q.siftUp(len(q.items) - 1)
}

// remove deletes the event at slot i (Cancel and pop paths).
func (q *eventQueue) remove(i int) {
	items := q.items
	ev := items[i].ev
	last := len(items) - 1
	if i != last {
		items[i] = items[last]
		items[i].ev.index = int32(i)
		items[last] = heapItem{}
		q.items = items[:last]
		// The replacement came from the bottom; restore the heap in
		// whichever direction it violates the invariant.
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	} else {
		items[last] = heapItem{}
		q.items = items[:last]
	}
	ev.index = -1
}

func (q *eventQueue) siftUp(i int) {
	items := q.items
	it := items[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !itemLess(&it, &items[parent]) {
			break
		}
		items[i] = items[parent]
		items[i].ev.index = int32(i)
		i = parent
	}
	items[i] = it
	it.ev.index = int32(i)
}

// siftDown restores the heap below slot i; it reports whether the event
// moved.
func (q *eventQueue) siftDown(i int) bool {
	items := q.items
	n := len(items)
	it := items[i]
	start := i
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if itemLess(&items[c], &items[min]) {
				min = c
			}
		}
		if !itemLess(&items[min], &it) {
			break
		}
		items[i] = items[min]
		items[i].ev.index = int32(i)
		i = min
	}
	items[i] = it
	it.ev.index = int32(i)
	return i != start
}
