package simos

// fifo is a queue over one backing array: pop advances a head index
// instead of re-slicing, and a drained queue starts again at the front
// of its array, so a queue that keeps filling and draining stops
// allocating once the array fits its deepest backlog.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

// front returns the oldest element; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// all returns the queued elements, oldest first, valid until the next
// mutation.
func (q *fifo[T]) all() []T { return q.buf[q.head:] }

// pushFront queues v ahead of the oldest element.
func (q *fifo[T]) pushFront(v T) {
	if q.head == 0 {
		var zero T
		q.buf = append(q.buf, zero)
		copy(q.buf[1:], q.buf)
		q.head = 1
	}
	q.head--
	q.buf[q.head] = v
}

// pop removes and returns the oldest element, dropping the queue's
// reference to it.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// removeAt deletes the i-th oldest element, keeping the order of the
// rest.
func (q *fifo[T]) removeAt(i int) {
	var zero T
	live := q.all()
	copy(live[i:], live[i+1:])
	live[len(live)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
