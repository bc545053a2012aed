package sim

import "math/bits"

// Hierarchical timer wheel — the near-future half of the engine's two-tier
// event scheduler (the far-future half is the overflow heap in engine.go).
//
// The wheel has wheelLevels levels of wheelSlots slots each. Slots are
// wheelGranule (1 µs) wide at level 0 and 256× wider per level, so the
// levels span 262 µs, 67 ms and 17 s: send/recv overheads, message
// deliveries and barrier releases land directly in level 0, the per-CPU
// scheduler ticks and RR re-arms in level 1 (one cascade), and only
// multi-second deadlines pay the full descent. An event lives at the lowest
// level where its deadline's slot bits differ from the wheel's reference
// time: this XOR-against-reference rule (rather than the classic delta
// rule) guarantees that slot indices at every level are monotone in
// deadline and never wrap past the cursor, which is what makes findMin a
// bitmap scan instead of a search. Deadlines beyond the top span overflow
// into the heap.
//
// Two properties matter for the engine contract:
//
//   - O(1) hot path. Insert is a level pick (two comparisons), a slot
//     append and a bitmap OR. Remove is a short list unlink. Each event
//     cascades at most wheelLevels-1 times in its life.
//
//   - Exact (at, seq) order. A slot spans many instants, so slot lists are
//     kept sorted by (at, seq); the head of the first occupied slot of the
//     lowest occupied level is then the wheel minimum, because levels are
//     strictly ordered by construction (every level-l event fires before
//     every level-(l+1) event). Cascades re-insert through the same sorted
//     path, so an event that trickles down a level keeps its place among
//     same-instant peers and the engine's determinism contract holds
//     bit-for-bit against the pure heap.
const (
	// wheelGranuleBits sets the level-0 slot width: 2^10 ns ≈ 1 µs.
	wheelGranuleBits = 10
	wheelBits        = 8
	wheelSlots       = 1 << wheelBits // 256
	wheelMask        = wheelSlots - 1
	wheelLevels      = 3
	// wheelHorizonBits is the span the wheel covers: deadlines whose XOR
	// distance from the reference time fits in this many bits. Events
	// beyond it live in the overflow heap.
	wheelHorizonBits = wheelGranuleBits + wheelBits*wheelLevels // 34 → ~17.2 s
)

// wheelShift returns the bit position of level l's slot index within a
// deadline.
func wheelShift(l int) uint {
	return uint(wheelGranuleBits + l*wheelBits)
}

// wheelLevel is one ring of slots. Slot lists are doubly linked through
// Event.next/prev (an event is never simultaneously pooled and queued, so
// the free-list link is reused; prev makes Cancel/Reschedule unlink O(1))
// and sorted by (at, seq). The occupancy bitmap lets findMin skip empty
// slots a word at a time.
type wheelLevel struct {
	count int
	bits  [wheelSlots / 64]uint64
	slots [wheelSlots]*Event
}

// timerWheel is the full hierarchy. time is the reference: the deadline of
// the last event popped through the wheel/heap pair. All pending events are
// ≥ time (the engine pops in global order), which is what keeps cursor
// scans one-directional.
type timerWheel struct {
	time   Time
	count  int
	levels [wheelLevels]wheelLevel
}

// eventLess orders events by (at, seq) — the engine's firing order.
func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// levelFor picks the level for a deadline, given its XOR distance from the
// reference. The caller has already excluded the overflow case
// (diff >> wheelHorizonBits != 0).
func levelFor(diff uint64) int {
	switch {
	case diff>>wheelShift(1) == 0:
		return 0
	case diff>>wheelShift(2) == 0:
		return 1
	default:
		return 2
	}
}

// insert places ev into its slot, keeping the slot list (at, seq)-sorted.
// The common case — a fresh Schedule/Reschedule, whose seq is the largest
// ever issued, into an empty or same-instant slot — appends at or near the
// head; cascaded events (older seq arriving late) and coarse slots holding
// several distinct instants pay a short sorted walk.
func (w *timerWheel) insert(ev *Event) {
	w.insertDiff(ev, uint64(ev.at^w.time))
}

// insertDiff is insert with the XOR distance already computed (the engine's
// routing check needs it anyway).
func (w *timerWheel) insertDiff(ev *Event, diff uint64) {
	l := levelFor(diff)
	s := int(ev.at>>wheelShift(l)) & wheelMask
	lv := &w.levels[l]
	head := lv.slots[s]
	if head == nil || eventLess(ev, head) {
		ev.prev = nil
		ev.next = head
		if head != nil {
			head.prev = ev
		}
		lv.slots[s] = ev
	} else {
		p := head
		for p.next != nil && !eventLess(ev, p.next) {
			p = p.next
		}
		ev.next = p.next
		ev.prev = p
		if p.next != nil {
			p.next.prev = ev
		}
		p.next = ev
	}
	ev.slot = int32(l<<wheelBits | s)
	lv.bits[s>>6] |= 1 << uint(s&63)
	lv.count++
	w.count++
}

// remove unlinks ev from its slot (Cancel, Reschedule of a pending event,
// and the pop path — where ev is the slot head and the walk ends
// immediately).
func (w *timerWheel) remove(ev *Event) {
	l := int(ev.slot) >> wheelBits
	s := int(ev.slot) & wheelMask
	lv := &w.levels[l]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		lv.slots[s] = ev.next
		if ev.next == nil {
			lv.bits[s>>6] &^= 1 << uint(s&63)
		}
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next = nil
	ev.prev = nil
	ev.slot = -1
	lv.count--
	w.count--
}

// firstFrom returns the first occupied slot index ≥ from, or -1.
func (lv *wheelLevel) firstFrom(from int) int {
	wi := from >> 6
	word := lv.bits[wi] &^ (1<<uint(from&63) - 1)
	for {
		if word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
		wi++
		if wi >= len(lv.bits) {
			return -1
		}
		word = lv.bits[wi]
	}
}

// min returns the earliest pending wheel event, or nil. Levels are strictly
// ordered (every level-l event fires before every level-(l+1) event), so
// the head of the first occupied slot of the lowest occupied level is the
// global wheel minimum; within a slot the list is sorted, so that is its
// head.
func (w *timerWheel) min() *Event {
	if w.count == 0 {
		return nil
	}
	// Fast path: an event scheduled for (or near) the current instant — a
	// scheduling pass at Now, a delivery a few µs out — sits in level 0
	// under the cursor itself.
	if lv := &w.levels[0]; lv.count > 0 {
		cursor := int(w.time>>wheelGranuleBits) & wheelMask
		if ev := lv.slots[cursor]; ev != nil {
			return ev
		}
		if s := lv.firstFrom(cursor); s >= 0 {
			return lv.slots[s]
		}
		panic("sim: timer wheel level occupied only behind the cursor")
	}
	for l := 1; l < wheelLevels; l++ {
		lv := &w.levels[l]
		if lv.count == 0 {
			continue
		}
		s := lv.firstFrom(int(w.time>>wheelShift(l)) & wheelMask)
		if s < 0 {
			// All events of this level sit below the cursor — impossible
			// while the engine pops in order.
			panic("sim: timer wheel level occupied only behind the cursor")
		}
		return lv.slots[s]
	}
	panic("sim: timer wheel count out of sync")
}

// advance moves the reference time to `to` (the deadline of the event being
// fired) and cascades: every level whose cursor slot changed re-distributes
// the slot now under its cursor into the finer levels, top level first.
// Slots skipped over are necessarily empty — their deadlines would lie in
// the past. Each event cascades at most wheelLevels-1 times over its life,
// so the amortised cost stays O(1).
func (w *timerWheel) advance(to Time) {
	diff := uint64(to ^ w.time)
	w.time = to
	if diff>>wheelShift(1) == 0 {
		return // cursor moved within level 0: nothing to cascade
	}
	top := wheelLevels - 1
	if diff>>wheelHorizonBits == 0 {
		top = levelFor(diff)
	} // else: beyond-horizon jump — the wheel is necessarily empty
	for l := top; l >= 1; l-- {
		lv := &w.levels[l]
		if lv.count == 0 {
			continue
		}
		s := int(to>>wheelShift(l)) & wheelMask
		head := lv.slots[s]
		if head == nil {
			continue
		}
		lv.slots[s] = nil
		lv.bits[s>>6] &^= 1 << uint(s&63)
		for head != nil {
			next := head.next
			head.next = nil
			lv.count--
			w.count--
			w.insert(head) // re-routes against the new reference: lands below l
			head = next
		}
	}
}
