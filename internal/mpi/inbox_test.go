package mpi

import (
	"testing"

	"hpcsched/internal/sim"
)

// refInbox is an executable specification of the pre-ring inbox: the
// map-of-FIFO-queues the package used before the preallocated ring. The
// stress test below drives both implementations with the same operation
// stream and requires identical behaviour.
type refInbox struct {
	q map[msgKey][]message
}

func newRefInbox() *refInbox { return &refInbox{q: map[msgKey][]message{}} }

func (r *refInbox) deliver(m message) {
	key := msgKey{m.src, m.tag}
	r.q[key] = append(r.q[key], m)
}

func (r *refInbox) take(src, tag int) (message, bool) {
	if tag != AnyTag {
		key := msgKey{src, tag}
		q := r.q[key]
		if len(q) == 0 {
			return message{}, false
		}
		m := q[0]
		if len(q) == 1 {
			delete(r.q, key)
		} else {
			r.q[key] = q[1:]
		}
		return m, true
	}
	bestTag := int(^uint(0) >> 1)
	found := false
	for key := range r.q {
		if key.src == src && len(r.q[key]) > 0 && key.tag < bestTag {
			bestTag, found = key.tag, true
		}
	}
	if !found {
		return message{}, false
	}
	return r.take(src, bestTag)
}

func (r *refInbox) len() int {
	n := 0
	for _, q := range r.q {
		n += len(q)
	}
	return n
}

// TestInboxRingMatchesMapSemantics stress-tests the ring against the
// old map-of-queues model: thousands of randomized deliver/take
// operations (several sources, clashing tags, AnyTag receives) must
// produce exactly the same messages in the same order, through ring
// growth and wrap-around.
func TestInboxRingMatchesMapSemantics(t *testing.T) {
	k, w := newWorld(t, 4)
	defer k.Shutdown()
	r := w.Rank(3)
	ref := newRefInbox()
	rng := sim.NewRNG(99)

	nextSize := int64(0)
	for op := 0; op < 20000; op++ {
		src := rng.Intn(3) // ranks 0..2 feed rank 3
		tag := rng.Intn(5)
		switch rng.Intn(5) {
		case 0, 1, 2: // deliver (biased so backlogs build up and the ring grows)
			nextSize++
			m := message{src: src, tag: tag, size: nextSize}
			r.deliver(m)
			ref.deliver(m)
		case 3: // take a specific tag
			got, ok := r.take(src, tag)
			want, wantOK := ref.take(src, tag)
			if ok != wantOK || got != want {
				t.Fatalf("op %d: take(%d,%d) = %+v,%v; reference %+v,%v",
					op, src, tag, got, ok, want, wantOK)
			}
		case 4: // take AnyTag
			got, ok := r.take(src, AnyTag)
			want, wantOK := ref.take(src, AnyTag)
			if ok != wantOK || got != want {
				t.Fatalf("op %d: take(%d,AnyTag) = %+v,%v; reference %+v,%v",
					op, src, got, ok, want, wantOK)
			}
		}
		if r.inbox.Len() != ref.len() {
			t.Fatalf("op %d: ring holds %d messages, reference %d", op, r.inbox.Len(), ref.len())
		}
	}
	// Drain completely: every remaining message must match.
	for src := 0; src < 3; src++ {
		for {
			got, ok := r.take(src, AnyTag)
			want, wantOK := ref.take(src, AnyTag)
			if ok != wantOK || got != want {
				t.Fatalf("drain src %d: %+v,%v vs %+v,%v", src, got, ok, want, wantOK)
			}
			if !ok {
				break
			}
		}
	}
	if r.inbox.Len() != 0 || ref.len() != 0 {
		t.Fatalf("leftovers: ring %d, reference %d", r.inbox.Len(), ref.len())
	}
}

// TestInboxSteadyStateAllocFree bounds the transport hot path: once the
// ring and the delivery pool are warm, deliver/take cycles and pooled
// posts must not allocate.
func TestInboxSteadyStateAllocFree(t *testing.T) {
	k, w := newWorld(t, 2)
	defer k.Shutdown()
	r := w.Rank(1)
	cycle := func() {
		for i := 0; i < 64; i++ { // build a backlog, then drain it
			r.deliver(message{src: 0, tag: i % 4, size: int64(i)})
		}
		for i := 0; i < 64; i++ {
			if _, ok := r.take(0, AnyTag); !ok {
				t.Fatal("backlog drained early")
			}
		}
		for i := 0; i < 32; i++ { // pooled in-flight deliveries
			w.post(r, message{src: 0, tag: 1, size: 1}, sim.Microsecond)
		}
		k.Engine.Run(k.Engine.Now() + sim.Millisecond)
		for i := 0; i < 32; i++ {
			if _, ok := r.take(0, 1); !ok {
				t.Fatal("post not delivered")
			}
		}
	}
	cycle() // warm: grows the ring, stocks the delivery pool
	if allocs := testing.AllocsPerRun(3, cycle); allocs > 1 {
		t.Fatalf("steady-state transport cycle allocates %.0f objects, want ≤1", allocs)
	}
}
