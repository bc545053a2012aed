package ring

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// contents returns q's elements head first.
func contents[T any](q *Queue[T]) []T {
	out := make([]T, q.Len())
	for i := range out {
		out[i] = q.At(i)
	}
	return out
}

// TestQueueOrderAcrossWrapAndGrowth keeps the head moving across the
// buffer boundary while the queue grows from a full, wrapped buffer.
func TestQueueOrderAcrossWrapAndGrowth(t *testing.T) {
	q := New[int](4)
	next, want := 0, 0
	for round := 0; round < 6; round++ {
		for range round + 3 { // a net gain of one element per round
			q.Push(next)
			next++
		}
		for range round + 2 {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("round %d: Pop = %d,%v, want %d,true", round, v, ok, want)
			}
			want++
		}
	}
	for i, v := range contents(&q) {
		if v != want+i {
			t.Fatalf("after churn: At(%d) = %d, want %d", i, v, want+i)
		}
	}
	if len(q.buf) != 16 { // the last round peaks at 13 queued elements
		t.Fatalf("buffer holds %d slots, want growth from 4 to 16", len(q.buf))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on an empty queue reported an element")
	}
}

// TestQueueZeroValue grows from no buffer at all.
func TestQueueZeroValue(t *testing.T) {
	var q Queue[string]
	for _, s := range []string{"a", "b", "c"} {
		q.Push(s)
	}
	if got := contents(&q); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("contents = %v", got)
	}
}

// TestQueueNewRoundsUp sizes the buffer to a power of two.
func TestQueueNewRoundsUp(t *testing.T) {
	for c, want := range map[int]int{0: 1, 1: 1, 3: 4, 8: 8, 9: 16} {
		if q := New[int](c); len(q.buf) != want {
			t.Errorf("New(%d) holds %d slots, want %d", c, len(q.buf), want)
		}
	}
}

// TestQueueRemoveAtBothSides removes near the head (the head side shifts)
// and near the tail (the tail side shifts) of a wrapped queue.
func TestQueueRemoveAtBothSides(t *testing.T) {
	for _, tc := range []struct {
		name string
		i    int
		want []int
	}{
		{"head", 1, []int{10, 12, 13, 14, 15, 16}},
		{"first", 0, []int{11, 12, 13, 14, 15, 16}},
		{"tail", 5, []int{10, 11, 12, 13, 14, 16}},
		{"last", 6, []int{10, 11, 12, 13, 14, 15}},
	} {
		q := New[int](8)
		for v := 0; v < 5; v++ { // move the head off slot 0 so the queue wraps
			q.Push(v)
			q.Pop()
		}
		for v := 10; v < 17; v++ {
			q.Push(v)
		}
		head := q.head
		q.RemoveAt(tc.i)
		if got := contents(&q); !slices.Equal(got, tc.want) {
			t.Errorf("%s: RemoveAt(%d) left %v, want %v", tc.name, tc.i, got, tc.want)
		}
		if headSide := tc.i < 3; headSide != (q.head != head) {
			t.Errorf("%s: RemoveAt(%d) moved the head %v, want the shorter side shifted", tc.name, tc.i, q.head != head)
		}
	}
}

// TestQueueVacatedSlotsZeroed: a popped or removed pointer is no longer
// referenced by the buffer, so the queue does not keep it alive.
func TestQueueVacatedSlotsZeroed(t *testing.T) {
	q := New[*int](4)
	vals := make([]*int, 4)
	for i := range vals {
		vals[i] = new(int)
		q.Push(vals[i])
	}
	q.Pop()
	q.RemoveAt(0) // head side
	q.RemoveAt(1) // tail side
	live := 0
	for _, p := range q.buf {
		if p != nil {
			live++
			if p != vals[2] {
				t.Errorf("buffer retains %p, want only the queued %p", p, vals[2])
			}
		}
	}
	if live != 1 || q.Len() != 1 {
		t.Fatalf("buffer holds %d pointers for %d queued elements", live, q.Len())
	}
}

// TestQueueMatchesSliceReference drives a queue and a plain slice with
// the same random push/pop/remove stream; they must agree throughout.
func TestQueueMatchesSliceReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	q := New[int](2)
	var ref []int
	for op := 0; op < 20000; op++ {
		switch r := rng.IntN(10); {
		case r < 5:
			q.Push(op)
			ref = append(ref, op)
		case r < 7:
			v, ok := q.Pop()
			if ok != (len(ref) > 0) || ok && v != ref[0] {
				t.Fatalf("op %d: Pop = %d,%v; reference %v", op, v, ok, ref)
			}
			if ok {
				ref = ref[1:]
			}
		default:
			if len(ref) == 0 {
				continue
			}
			i := rng.IntN(len(ref))
			q.RemoveAt(i)
			ref = slices.Delete(ref, i, i+1)
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference %d", op, q.Len(), len(ref))
		}
		if op%97 == 0 && !slices.Equal(contents(&q), ref) {
			t.Fatalf("op %d: contents %v, reference %v", op, contents(&q), ref)
		}
	}
	if !slices.Equal(contents(&q), ref) {
		t.Fatalf("final contents %v, reference %v", contents(&q), ref)
	}
}
