// Package ring provides Queue, the FIFO both of the model's short hot
// queues use: the HPC class's per-CPU round-robin list (internal/core) and
// each MPI rank's inbox (internal/mpi). It is a flat power-of-two circular
// buffer, so pushes and pops never shift or reallocate in steady state.
package ring

// Queue is a FIFO of T on a power-of-two circular buffer that doubles when
// full. Slots a Pop or RemoveAt vacates are zeroed, so a queue of pointers
// retains nothing it no longer holds. The zero Queue is empty and ready to
// use.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// New returns an empty queue with room for capacity elements, rounded up
// to a power of two, before it first grows.
func New[T any](capacity int) Queue[T] {
	c := 1
	for c < capacity {
		c *= 2
	}
	return Queue[T]{buf: make([]T, c)}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// slot returns the buffer index of logical position i (0 = head).
func (q *Queue[T]) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// At returns the element at logical position i, 0 <= i < Len() (0 = head).
func (q *Queue[T]) At(i int) T { return q.buf[q.slot(i)] }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = v
	q.n++
}

// grow doubles the buffer, re-laying the queue from the head.
func (q *Queue[T]) grow() {
	nb := make([]T, max(2*len(q.buf), 1))
	for i := 0; i < q.n; i++ {
		nb[i] = q.At(i)
	}
	q.buf = nb
	q.head = 0
}

// Pop removes and returns the head element; ok is false when the queue is
// empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.n == 0 {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head = q.slot(1)
	q.n--
	return v, true
}

// RemoveAt deletes the element at logical position i, 0 <= i < Len(),
// shifting the shorter side of the queue to close the gap; the order of
// the others is preserved.
func (q *Queue[T]) RemoveAt(i int) {
	var zero T
	if i < q.n-i-1 {
		for j := i; j > 0; j-- {
			q.buf[q.slot(j)] = q.At(j - 1)
		}
		q.buf[q.head] = zero
		q.head = q.slot(1)
	} else {
		for j := i; j < q.n-1; j++ {
			q.buf[q.slot(j)] = q.At(j + 1)
		}
		q.buf[q.slot(q.n-1)] = zero
	}
	q.n--
}
