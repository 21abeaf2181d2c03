package task

import (
	"math"
	"sync/atomic"
)

// This file implements the lock-free half of the class statistics: each
// worker owns one shard and records completed tasks into it without any
// locks; the registry folds shard deltas into the canonical class table at
// merge time (reorganization or a cold-path read). It is the paper's
// helper-thread division of labor (§III-C) taken to its logical end:
// workers only ever append locally, the helper does all the aggregation.
//
// Memory ordering. A slot is single-writer: the owning worker accumulates
// into plain shadow fields and publishes them with three atomic stores,
// sums first, count last. The merge path loads count first, then the
// sums. Under the Go memory model's sequentially-consistent atomics, a
// reader that observes count = n therefore observes sums covering at
// least those n observations — the sums may additionally include an
// in-flight observation the count does not yet cover. The registry's
// consumption cursors absorb that slack: all counters are monotone, every
// recorded observation is eventually covered by a published count, so the
// merged table is exact once recording quiesces, and transiently off by
// at most one in-flight observation per slot while it runs. No CAS, no
// atomic read-modify-write, and no retry loop appears anywhere on the
// record path.
type slot struct {
	// class is the slot's task class; immutable.
	class string
	// Owner-side shadow accumulators: plain fields, touched only by the
	// shard owner.
	locN int64
	locW float64
	locC float64
	// Published copies. Monotone totals since shard creation; the merge
	// path tracks how much it has consumed, so the writer never needs to
	// be paused or reset.
	count   atomic.Int64
	sumWork atomic.Uint64
	sumCMPI atomic.Uint64
}

// record folds one observation. Owner-only: exactly one goroutine may call
// it for a given slot. Publication order is sums before count (see the
// file comment); the CMPI sum is only published while it is live — a class
// that never reports counters skips that store entirely.
func (s *slot) record(workload, cmpi float64) {
	s.locN++
	s.locW += workload
	s.sumWork.Store(math.Float64bits(s.locW))
	if cmpi != 0 || s.locC != 0 {
		s.locC += cmpi
		s.sumCMPI.Store(math.Float64bits(s.locC))
	}
	s.count.Store(s.locN)
}

// read returns a (count, sumWork, sumCMPI) merge snapshot: count first,
// then sums, so the sums cover at least count observations (possibly one
// more that is still in flight — see the file comment). Merge-path only.
func (s *slot) read() (n int64, sumWork, sumCMPI float64) {
	n = s.count.Load()
	sumWork = math.Float64frombits(s.sumWork.Load())
	sumCMPI = math.Float64frombits(s.sumCMPI.Load())
	return
}

// slotSet is the per-shard class index: byClass serves the owner's
// record-path lookup, list the cold-path walks (Epoch, merge), which run
// every helper tick and must not pay a map iteration each. Published sets
// are immutable: the owner copies on class creation and swaps the pointer,
// so the merge path reads a loaded set without synchronization
// (RCU-style). list only ever grows at its end, so a slot keeps its
// position for the shard's lifetime and the registry's consumption
// cursors are indexed by it.
type slotSet struct {
	byClass map[string]*slot
	list    []*slot
}

// shard is one worker's private statistics area. It has no aggregate
// counter of its own: the registry's epoch and pending-work checks sum the
// published slot counts instead (cold path, and the class population is
// small), keeping the record path at its minimum of two stores.
type shard struct {
	set atomic.Pointer[slotSet]
	_   [56]byte // keep neighboring shards' hot words off one cache line
}

// slots returns the shard's published slots in creation order.
func (sh *shard) slots() []*slot {
	if set := sh.set.Load(); set != nil {
		return set.list
	}
	return nil
}

// count sums the shard's published per-slot observation counts.
func (sh *shard) count() int64 {
	var t int64
	for _, sl := range sh.slots() {
		t += sl.count.Load()
	}
	return t
}

// addSlot publishes a new class slot (copy-on-write; owner-only).
func (sh *shard) addSlot(class string) *slot {
	old := sh.slots()
	next := &slotSet{
		byClass: make(map[string]*slot, 1+len(old)),
		list:    make([]*slot, 0, 1+len(old)),
	}
	for _, sl := range old {
		next.byClass[sl.class] = sl
	}
	sl := &slot{class: class}
	next.byClass[class] = sl
	next.list = append(append(next.list, old...), sl)
	sh.set.Store(next)
	return sl
}

// Recorder is one worker's owner-only statistics sink: the lock-free
// record step of Algorithm 2. Exactly one goroutine may call Observe on a
// given Recorder; distinct recorders are fully independent. Observations
// become visible to Lookup/Snapshot/Epoch when the registry next merges
// (helper-thread reorganization or any cold-path read) — merging only
// delays when statistics appear, never what they converge to.
type Recorder struct {
	sh *shard
}

// Observe records one completed task of the given class: Eq.2-normalized
// workload plus the CMPI counter readout (0 when not collected).
func (rec *Recorder) Observe(class string, workload, cmpi float64) {
	sh := rec.sh
	var sl *slot
	if set := sh.set.Load(); set != nil {
		sl = set.byClass[class]
	}
	if sl == nil {
		sl = sh.addSlot(class)
	}
	sl.record(workload, cmpi)
}

// cursor remembers how much of a shard slot the registry has folded into
// the canonical table (guarded by Registry.mu); the registry keeps one per
// slot, at the slot's position in its shard.
type cursor struct {
	n       int64
	sumWork float64
	sumCMPI float64
}
