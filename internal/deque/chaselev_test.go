package deque

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestChaseLevSequential(t *testing.T) {
	d := NewChaseLev[int64](4)
	if !d.Empty() {
		t.Fatal("new deque not empty")
	}
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i)
		d.PushBottom(&vals[i])
	}
	if d.Len() != 100 {
		t.Fatalf("Len=%d", d.Len())
	}
	// Owner LIFO.
	for i := int64(99); i >= 50; i-- {
		v, ok := d.PopBottom()
		if !ok || *v != i {
			t.Fatalf("PopBottom=%v,%v want %d", v, ok, i)
		}
	}
	// Thief FIFO.
	for i := int64(0); i < 50; i++ {
		v, ok := d.Steal()
		if !ok || *v != i {
			t.Fatalf("Steal=%v,%v want %d", v, ok, i)
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("PopBottom on empty")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("Steal on empty")
	}
}

// TestChaseLevPtrSequential: the deque hands back the very pointers it
// was given, not copies, from either end.
func TestChaseLevPtrSequential(t *testing.T) {
	d := NewChaseLev[int](4)
	vals := make([]int, 100)
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	for i := 99; i >= 50; i-- {
		if v, ok := d.PopBottom(); !ok || v != &vals[i] {
			t.Fatalf("PopBottom=%p,%v want %p", v, ok, &vals[i])
		}
	}
	for i := 0; i < 50; i++ {
		if v, ok := d.Steal(); !ok || v != &vals[i] {
			t.Fatalf("Steal=%p,%v want %p", v, ok, &vals[i])
		}
	}
	if !d.Empty() || d.Len() != 0 {
		t.Fatalf("not empty: Len=%d", d.Len())
	}
}

func TestChaseLevGrowth(t *testing.T) {
	d := NewChaseLev[int](2)
	vals := make([]int, 10000)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	for i := range vals {
		v, ok := d.Steal()
		if !ok || *v != i {
			t.Fatalf("after growth Steal=%v,%v want %d", v, ok, i)
		}
	}
}

// hammer runs one owner, which pushes nItems and pops after every
// popEvery-th push, against several thieves, and checks that every pushed
// pointer is consumed exactly once and comes back unchanged.
func hammer(t *testing.T, nItems, popEvery int64) {
	const nThieves = 4
	d := NewChaseLev[int64](8)
	items := make([]int64, nItems)
	var consumed sync.Map
	var dup, moved, total atomic.Int64
	record := func(v *int64) {
		if v != &items[*v] {
			moved.Add(1)
		}
		if _, loaded := consumed.LoadOrStore(*v, true); loaded {
			dup.Add(1)
		}
		total.Add(1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < nThieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					record(v)
				}
				select {
				case <-stop:
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						record(v)
					}
				default:
				}
			}
		}()
	}
	for i := int64(0); i < nItems; i++ {
		items[i] = i
		d.PushBottom(&items[i])
		if i%popEvery == 0 {
			if v, ok := d.PopBottom(); ok {
				record(v)
			}
		}
	}
	for {
		v, ok := d.PopBottom()
		if !ok {
			break
		}
		record(v)
	}
	close(stop)
	wg.Wait()
	if got := total.Load(); got != nItems {
		t.Fatalf("consumed %d items, want %d", got, nItems)
	}
	if n := dup.Load(); n != 0 {
		t.Fatalf("%d items consumed twice", n)
	}
	if n := moved.Load(); n != 0 {
		t.Fatalf("%d pointers came back changed", n)
	}
}

// TestChaseLevConcurrent hammers one owner against several thieves.
func TestChaseLevConcurrent(t *testing.T) { hammer(t, 100000, 7) }

// TestChaseLevPtrConcurrent is the same hammer with the owner popping
// more often, so more PopBottom calls race a Steal for the last item.
func TestChaseLevPtrConcurrent(t *testing.T) { hammer(t, 50000, 5) }
