// Package fifo is the simulator's one first-in-first-out queue: a ring
// whose storage is reused as items come and go, so a queue that has reached
// its peak length stops allocating. It grows, doubling, only when full.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // ring storage; len(buf) is the capacity, zero or a power of two
	head int
	n    int
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		// Full: the items are buf[head:] then buf[:head].
		grown := make([]T, max(8, 2*len(q.buf)))
		copy(grown[copy(grown, q.buf[q.head:]):], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the front item, zeroing its slot so the queue
// holds no reference to it. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("fifo: Pop of an empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns the front item in place; writes through it are seen by the
// next Pop. It panics on an empty queue.
func (q *Queue[T]) Front() *T { return q.At(0) }

// At returns the i-th item from the front in place, 0 <= i < Len.
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("fifo: index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}
