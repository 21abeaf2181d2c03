package deque

import "sync/atomic"

// ChaseLev is a lock-free work-stealing deque of typed pointers after
// Chase & Lev (SPAA'05), adapted to Go's memory model with atomic
// operations throughout. The owner worker calls PushBottom and PopBottom;
// any number of thieves call Steal concurrently.
//
// The live runtime gives every worker one ChaseLev deque per task cluster
// (Fig. 5 of the paper: each core adopts one task pool per task cluster).
//
// Implementation note: the element array slots are atomic pointers so a
// thief racing a grow() observes either the old or the new array, both of
// which hold the same live window (grow copies before publishing).
type ChaseLev[T any] struct {
	top    atomic.Int64 // next index to steal
	bottom atomic.Int64 // next index to push
	array  atomic.Pointer[clArray[T]]
}

type clArray[T any] struct {
	size int64 // power of two
	buf  []atomic.Pointer[T]
}

func newCLArray[T any](size int64) *clArray[T] {
	return &clArray[T]{size: size, buf: make([]atomic.Pointer[T], size)}
}

func (a *clArray[T]) get(i int64) *T    { return a.buf[i&(a.size-1)].Load() }
func (a *clArray[T]) put(i int64, v *T) { a.buf[i&(a.size-1)].Store(v) }

// NewChaseLev returns an empty deque with the given initial capacity
// (rounded up to a power of two, minimum 8).
func NewChaseLev[T any](capacity int) *ChaseLev[T] {
	size := int64(8)
	for size < int64(capacity) {
		size <<= 1
	}
	d := &ChaseLev[T]{}
	d.array.Store(newCLArray[T](size))
	return d
}

// Len returns an instantaneous (racy) estimate of the queue length.
func (d *ChaseLev[T]) Len() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return int(b - t)
}

// Empty reports (racily) whether the deque looks empty.
func (d *ChaseLev[T]) Empty() bool { return d.Len() == 0 }

// PushBottom appends v at the owner end. Only the owner may call it.
func (d *ChaseLev[T]) PushBottom(v *T) {
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.array.Load()
	if b-t >= a.size {
		// Grow: copy the live window into a doubled array.
		na := newCLArray[T](a.size * 2)
		for i := t; i < b; i++ {
			na.put(i, a.get(i))
		}
		d.array.Store(na)
		a = na
	}
	a.put(b, v)
	d.bottom.Store(b + 1)
}

// PopBottom removes the owner-end element. Only the owner may call it.
func (d *ChaseLev[T]) PopBottom() (*T, bool) {
	b := d.bottom.Load() - 1
	a := d.array.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t {
		// Deque was empty; restore.
		d.bottom.Store(t)
		return nil, false
	}
	v := a.get(b)
	if b > t {
		return v, true
	}
	// Last element: race against thieves via CAS on top.
	ok := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !ok {
		return nil, false
	}
	return v, true
}

// Steal removes the thief-end element. Any goroutine may call it.
func (d *ChaseLev[T]) Steal() (*T, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if b <= t {
			return nil, false
		}
		a := d.array.Load()
		v := a.get(t)
		if d.top.CompareAndSwap(t, t+1) {
			return v, true
		}
		// Lost the race; retry unless the deque drained meanwhile.
	}
}
