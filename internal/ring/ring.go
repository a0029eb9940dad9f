// Package ring provides the FIFO ring every cell queue in the simulator
// is built on: router ingress queues, banyan node buffers and network
// links. The backing array has a power-of-two length, so index
// arithmetic is a mask instead of a modulo, pops never reslice, and a
// queue that has reached its peak depth never allocates again.
package ring

// Ring is a FIFO of T over a power-of-two ring buffer. Push doubles the
// buffer only when it is full; a caller that bounds the queue itself
// (checking Len before Push) and sizes the ring with New never grows
// it. The zero value is an empty ring with no backing array, allocated
// on the first Push.
type Ring[T any] struct {
	buf        []T // power-of-two length, or nil
	head, size int
}

// New returns an empty ring whose buffer holds at least capacity
// entries, allocated up front.
func New[T any](capacity int) Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return Ring[T]{buf: make([]T, n)}
}

// Len returns the number of queued entries.
func (r *Ring[T]) Len() int { return r.size }

// Front returns the head entry; the ring must be non-empty.
func (r *Ring[T]) Front() T { return r.buf[r.head] }

// Push appends v at the tail, doubling the buffer first if it is full.
func (r *Ring[T]) Push(v T) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = v
	r.size++
}

// PushAll appends vs at the tail in order, growing the buffer first if
// they do not all fit — a block fill for hot paths that would otherwise
// push entry by entry.
func (r *Ring[T]) PushAll(vs []T) {
	for r.size+len(vs) > len(r.buf) {
		r.grow()
	}
	mask := len(r.buf) - 1
	base := r.head + r.size
	for i, v := range vs {
		r.buf[(base+i)&mask] = v
	}
	r.size += len(vs)
}

// Pop removes and returns the head entry, clearing its slot so the ring
// holds no reference to an entry that has left the queue. The ring must
// be non-empty.
func (r *Ring[T]) Pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return v
}

// Segment returns the contiguous run of queued entries starting off
// entries past the head, capped at k entries. The occupied region is
// at most two slices split at the wrap point, so a drain can walk it in
// blocks (Segment, then Discard) instead of popping entry by entry.
func (r *Ring[T]) Segment(off, k int) []T {
	start := (r.head + off) & (len(r.buf) - 1)
	if start+k <= len(r.buf) {
		return r.buf[start : start+k]
	}
	return r.buf[start:]
}

// Discard drops the k entries at the head, already consumed through
// Segment, clearing their slots.
func (r *Ring[T]) Discard(k int) {
	var zero T
	mask := len(r.buf) - 1
	for i := 0; i < k; i++ {
		r.buf[(r.head+i)&mask] = zero
	}
	r.head = (r.head + k) & mask
	r.size -= k
}

// Drain empties the ring, calling fn (if non-nil) on each entry in
// queue order, and returns how many it removed.
func (r *Ring[T]) Drain(fn func(T)) int {
	n := r.size
	for r.size > 0 {
		v := r.Pop()
		if fn != nil {
			fn(v)
		}
	}
	return n
}

// grow doubles the buffer (minimum 4 entries), unwrapping it to start
// at index 0.
func (r *Ring[T]) grow() {
	n := 2 * len(r.buf)
	if n == 0 {
		n = 4
	}
	buf := make([]T, n)
	mask := len(r.buf) - 1
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&mask]
	}
	r.buf, r.head = buf, 0
}
