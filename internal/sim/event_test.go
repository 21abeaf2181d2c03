package sim

import (
	"cmp"
	"slices"
	"testing"

	"wats/internal/rng"
)

// heapDriver feeds an eventHeap from a stream of op bytes and keeps the
// reference answer beside it: every pop must return the pending event
// that is first by (at, seq). Times come from a handful of values so
// that most comparisons are decided by seq.
type heapDriver struct {
	t       *testing.T
	h       eventHeap
	pending []event
	seq     int64
}

func (d *heapDriver) push(at float64) {
	d.seq++
	ev := event{at: at, seq: d.seq, kind: evSegEnd, core: int32(d.seq % 16), token: d.seq * 3}
	d.h.push(ev)
	d.pending = append(d.pending, ev)
}

func (d *heapDriver) pop() {
	if d.h.Len() == 0 {
		return
	}
	first := 0
	for i := range d.pending {
		if d.pending[i].before(&d.pending[first]) {
			first = i
		}
	}
	want := d.pending[first]
	d.pending = slices.Delete(d.pending, first, first+1)
	if got := d.h.pop(); got != want {
		d.t.Fatalf("pop returned %+v, want %+v (%d still pending)", got, want, len(d.pending))
	}
}

// run interprets ops: the low bit picks push or pop, the next three bits
// the time of a push.
func (d *heapDriver) run(ops []byte) {
	for _, op := range ops {
		if op&1 == 0 {
			d.push(float64(op >> 1 & 7))
		} else {
			d.pop()
		}
	}
	for d.h.Len() > 0 {
		d.pop()
	}
	if len(d.pending) != 0 {
		d.t.Fatalf("heap empty with %d events never popped", len(d.pending))
	}
}

// TestEventHeapOrder checks the queue contract the engine's determinism
// rests on: whatever the interleaving of pushes and pops, events leave in
// (at, seq) order — insertion order among equal times — including after
// the heap has drained to empty and grown again.
func TestEventHeapOrder(t *testing.T) {
	r := rng.New(7)
	d := &heapDriver{t: t}
	for round := 0; round < 50; round++ {
		ops := make([]byte, 1+r.Intn(400))
		for i := range ops {
			ops[i] = byte(r.Intn(256))
			if round%2 == 0 && r.Intn(3) == 0 {
				ops[i] &^= 1 // push-heavy rounds build a deep heap
			}
		}
		d.run(ops) // ends drained; the next round re-grows the same heap
	}

	// Popped order equals a stable sort by at of the push order.
	var h eventHeap
	var pushed []event
	for i := 0; i < 1000; i++ {
		ev := event{at: float64(r.Intn(5)), seq: int64(i + 1)}
		h.push(ev)
		pushed = append(pushed, ev)
	}
	slices.SortStableFunc(pushed, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	for i, want := range pushed {
		if got := h.pop(); got != want {
			t.Fatalf("pop %d returned %+v, want %+v", i, got, want)
		}
	}
}

func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{14, 12, 10, 8, 6, 4, 2, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 2, 2, 2, 1, 2, 1, 2, 1, 1, 1, 4, 0, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 6, 6, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		(&heapDriver{t: t}).run(ops)
	})
}
