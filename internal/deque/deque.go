// Package deque provides the double-ended queues ("task pools" in the WATS
// paper) used by the schedulers.
//
// Two implementations are provided:
//
//   - Deque[T]: a plain, single-threaded growable ring deque used by the
//     discrete-event simulator, where the engine serializes all accesses.
//   - ChaseLev[T]: the lock-free Chase–Lev deque, the classic
//     work-stealing deque used by the live goroutine runtime, where the
//     owner pushes/pops the bottom without synchronization in the common
//     case and thieves steal the top with atomic operations.
//
// Owner operations follow the Cilk convention: PushBottom/PopBottom give
// LIFO order to the owner (good locality), Steal takes from the top (FIFO,
// tends to grab the largest unexplored subtree).
package deque

// Deque is a growable ring-buffer double-ended queue. The zero value is
// ready to use. It is not safe for concurrent use; the simulator's event
// loop serializes access, and the live runtime's shared inbox wraps it in
// a mutex.
//
// The buffer capacity is kept a power of two so ring indices are computed
// with a mask instead of an integer division (the push/pop pair sits on
// the runtime's per-task path).
type Deque[T any] struct {
	buf  []T
	mask int // len(buf) - 1; len(buf) is always a power of two
	head int // index of the top (steal end)
	n    int // number of elements
}

// New returns an empty deque with a small initial capacity.
func New[T any]() *Deque[T] {
	return &Deque[T]{buf: make([]T, 8), mask: 7}
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// Empty reports whether the deque has no elements.
func (d *Deque[T]) Empty() bool { return d.n == 0 }

func (d *Deque[T]) grow() {
	ncap := len(d.buf) * 2
	if ncap == 0 {
		ncap = 8
	}
	nb := make([]T, ncap)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&d.mask]
	}
	d.buf = nb
	d.mask = ncap - 1
	d.head = 0
}

// PushBottom appends v at the bottom (owner end).
func (d *Deque[T]) PushBottom(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&d.mask] = v
	d.n++
}

// PopBottom removes and returns the bottom element (owner end, LIFO).
func (d *Deque[T]) PopBottom() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	d.n--
	i := (d.head + d.n) & d.mask
	v := d.buf[i]
	d.buf[i] = zero
	return v, true
}

// PopTop removes and returns the top element (thief end, FIFO).
func (d *Deque[T]) PopTop() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	v := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) & d.mask
	d.n--
	return v, true
}

// PeekTop returns the top element without removing it.
func (d *Deque[T]) PeekTop() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	return d.buf[d.head], true
}

// PeekBottom returns the bottom element without removing it.
func (d *Deque[T]) PeekBottom() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	return d.buf[(d.head+d.n-1)&d.mask], true
}

// Clear removes all elements, keeping capacity.
func (d *Deque[T]) Clear() {
	var zero T
	for i := 0; i < d.n; i++ {
		d.buf[(d.head+i)&d.mask] = zero
	}
	d.head, d.n = 0, 0
}

// Drain removes and returns all elements from top to bottom.
func (d *Deque[T]) Drain() []T {
	out := make([]T, 0, d.n)
	for {
		v, ok := d.PopTop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Each calls fn on every element from top to bottom without removing them.
func (d *Deque[T]) Each(fn func(v T)) {
	for i := 0; i < d.n; i++ {
		fn(d.buf[(d.head+i)&d.mask])
	}
}
