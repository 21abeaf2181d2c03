package task

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Class is the task-class record TC(f, n, w) of the paper: f is the
// function name, n the number of completed tasks observed, and w their
// average Eq.2-normalized workload. AvgCMPI extends the record with the
// class's average cache-misses-per-instruction for the §IV-E
// memory-boundedness classification.
type Class struct {
	// Name is the function name f.
	Name string
	// Count is n, the number of completed tasks folded in so far.
	Count int
	// AvgWork is w, the running average normalized workload.
	AvgWork float64
	// AvgCMPI is the running average CMPI reported by the performance
	// counters (0 when counters are not collected).
	AvgCMPI float64
}

// TotalWork returns n*w, the aggregate workload of the class, which
// Algorithm 1 uses as the class's weight when partitioning classes into
// task clusters.
func (c Class) TotalWork() float64 { return float64(c.Count) * c.AvgWork }

// Registry is the collection of task classes of Algorithm 2, split along
// the paper's hot/cold boundary (§III-C):
//
//   - the hot path records completed tasks through per-worker shard
//     Recorders — plain owner-only writes, no locks, no shared cache
//     lines (see shard.go);
//   - the cold path (the helper thread's reorganization, plus any
//     Lookup/Snapshot reader) merges the shard deltas into the canonical
//     class table under Registry.mu.
//
// Merging only delays when statistics become visible — never what they
// converge to: with the cumulative mean, folding a batch (Δn, Δsum) gives
// exactly the same class average as folding its observations one at a
// time. Direct Observe/ObserveFull calls (the simulator's single-threaded
// loop, tests) still update the canonical table in place under the lock.
type Registry struct {
	mu      sync.Mutex
	classes map[string]*Class
	// order lists the classes in the order the last snapshot sorted them
	// (new classes at the end). A snapshot walks and re-sorts it instead
	// of iterating the map: between two helper ticks few classes change
	// rank, and sorting an almost sorted short slice is a single scan.
	order []*Class
	// ewma, when nonzero, switches the workload average from the paper's
	// cumulative mean to an exponential moving average with this weight
	// for the newest observation — an extension that adapts faster to
	// phase changes (§III-A discusses timely updates; a cumulative mean
	// over a long history adapts at rate n_new/n_total).
	ewma float64

	// epoch increments on every direct observation and structural change;
	// Epoch() adds the shard totals so the allocator can detect staleness
	// without locking.
	epoch atomic.Uint64

	// set holds the per-worker lock-free recorders. It is published
	// RCU-style (copy-on-write under mu, atomic pointer swap) so the
	// lock-free readers — Epoch, the record path handing out recorders —
	// never block while an elastic runtime grows the shard set for a
	// joining worker. Shards are only ever added, never removed: a retiring
	// worker's shard stays behind with its monotone totals, so its history
	// folds into the canonical table exactly like a live worker's.
	// consumed[i][j] tracks how much of shard i's j-th slot has been folded
	// into classes (guarded by mu; grown lazily to match the set).
	// consumedTotal mirrors the folded observation count so the pending
	// check stays a handful of atomic loads.
	set           atomic.Pointer[shardSet]
	consumed      [][]cursor
	consumedTotal atomic.Int64
}

// shardSet is the immutable published view of the shard recorders; Grow
// copies and republishes it.
type shardSet struct {
	shards []*shard
	recs   []*Recorder
}

// NewRegistry returns an empty class registry with a single shard
// (sufficient for single-threaded use; the engines size their registries
// with NewSharded).
func NewRegistry() *Registry { return NewSharded(1) }

// NewSharded returns an empty registry with n per-worker shard recorders
// (min 1). Recorder(w) hands worker w its owner-only sink.
func NewSharded(n int) *Registry {
	if n < 1 {
		n = 1
	}
	r := &Registry{classes: make(map[string]*Class)}
	set := &shardSet{
		shards: make([]*shard, n),
		recs:   make([]*Recorder, n),
	}
	for i := range set.shards {
		set.shards[i] = &shard{}
		set.recs[i] = &Recorder{sh: set.shards[i]}
	}
	r.set.Store(set)
	return r
}

// Recorder returns shard w's owner-only sink, growing the shard set when
// w is beyond it — the entry point an elastic runtime uses to hand a
// joining worker a fresh history shard. Exactly one goroutine may use a
// given recorder; the returned pointer is stable across calls (slot ids
// reused for successive workers share one recorder, which is safe because
// the runtime retires the old owner before the new one starts).
func (r *Registry) Recorder(w int) *Recorder {
	if w < 0 {
		w = 0
	}
	if set := r.set.Load(); w < len(set.recs) {
		return set.recs[w]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.set.Load()
	if w < len(set.recs) {
		return set.recs[w]
	}
	next := &shardSet{
		shards: append(append([]*shard(nil), set.shards...), make([]*shard, w+1-len(set.shards))...),
		recs:   append(append([]*Recorder(nil), set.recs...), make([]*Recorder, w+1-len(set.recs))...),
	}
	for i := len(set.shards); i <= w; i++ {
		next.shards[i] = &shard{}
		next.recs[i] = &Recorder{sh: next.shards[i]}
	}
	r.set.Store(next)
	return next.recs[w]
}

// Shards returns the number of shard recorders.
func (r *Registry) Shards() int { return len(r.set.Load().shards) }

// cursorsLocked returns shard i's cursors, one per slot of slots, growing
// the table to cover every published shard and slot. Called with mu held.
func (r *Registry) cursorsLocked(i int, slots []*slot) []cursor {
	for len(r.consumed) <= i {
		r.consumed = append(r.consumed, nil)
	}
	for len(r.consumed[i]) < len(slots) {
		r.consumed[i] = append(r.consumed[i], cursor{})
	}
	return r.consumed[i]
}

// addClassLocked registers a new class record. Called with mu held.
func (r *Registry) addClassLocked(c *Class) {
	r.classes[c.Name] = c
	r.order = append(r.order, c)
}

// SetEWMA switches the registry to exponential moving averages with the
// given weight in (0,1] for the newest observation; 0 restores the
// paper's cumulative mean.
//
// Ordering contract under sharding: the mode applies at merge time, not
// at record time. Observations already recorded to shard recorders but
// not yet merged are folded with whatever mode is in effect when the
// merge happens — SetEWMA therefore affects subsequent merges only.
// Call it before observations begin for clean semantics. Note also that
// the sharded EWMA is batch-granular: one merge folds a shard's pending
// observations as a single batch with their mean (see foldBatch), which
// equals the per-observation EWMA when the batch is one observation.
func (r *Registry) SetEWMA(alpha float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ewma = alpha
}

// Observe folds one completed task into its class, implementing
// Algorithm 2 of the paper:
//
//	TC(f, n, w)  =>  TC(f, n+1, (n*w + wγ)/(n+1))
//
// creating the class on first observation. workload must already be
// normalized per Eq. 2. It reports whether a new class was created.
//
// Observe updates the canonical table directly under the registry lock;
// concurrent hot paths should use a per-worker Recorder instead.
func (r *Registry) Observe(function string, workload float64) bool {
	return r.ObserveFull(function, workload, 0)
}

// ObserveFull is Observe plus the task's CMPI counter readout, for the
// §IV-E memory-aware extension.
func (r *Registry) ObserveFull(function string, workload, cmpi float64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch.Add(1)
	c, ok := r.classes[function]
	if !ok {
		r.addClassLocked(&Class{Name: function, Count: 1, AvgWork: workload, AvgCMPI: cmpi})
		return true
	}
	if a := r.ewma; a > 0 {
		c.AvgWork = (1-a)*c.AvgWork + a*workload
		c.AvgCMPI = (1-a)*c.AvgCMPI + a*cmpi
	} else {
		n := float64(c.Count)
		c.AvgWork = (n*c.AvgWork + workload) / (n + 1)
		c.AvgCMPI = (n*c.AvgCMPI + cmpi) / (n + 1)
	}
	c.Count++
	return false
}

// pendingLocked reports whether any shard holds observations not yet
// folded into the canonical table. Called with mu held (or from Epoch,
// where staleness is harmless).
func (r *Registry) pendingLocked() bool {
	var t int64
	for _, sh := range r.set.Load().shards {
		t += sh.count()
	}
	return t > r.consumedTotal.Load()
}

// foldLocked merges every shard's unconsumed deltas into the canonical
// table — the merge step the helper thread performs at reorganization
// time. Called with mu held.
func (r *Registry) foldLocked() {
	for i, sh := range r.set.Load().shards {
		slots := sh.slots()
		cursors := r.cursorsLocked(i, slots)
		for j, sl := range slots {
			n, sw, sc := sl.read()
			cur := &cursors[j]
			dn := n - cur.n
			if dn == 0 {
				continue
			}
			dw, dc := sw-cur.sumWork, sc-cur.sumCMPI
			*cur = cursor{n: n, sumWork: sw, sumCMPI: sc}
			r.consumedTotal.Add(dn)
			r.foldBatch(sl.class, dn, dw, dc)
		}
	}
}

// foldBatch folds a batch of dn observations with sums (dw, dc) into the
// class. With the cumulative mean this is exact: (n*w + Δsum)/(n+Δn)
// equals folding the observations one at a time (up to float rounding).
// With EWMA the batch is applied at its mean — new = (1-α)^Δn·old +
// (1-(1-α)^Δn)·(Δsum/Δn) — which matches the per-observation EWMA when
// Δn=1 and weighs the batch as a whole otherwise (batch-granular EWMA;
// see SetEWMA).
func (r *Registry) foldBatch(name string, dn int64, dw, dc float64) {
	fdn := float64(dn)
	c, ok := r.classes[name]
	if !ok {
		r.addClassLocked(&Class{Name: name, Count: int(dn), AvgWork: dw / fdn, AvgCMPI: dc / fdn})
		return
	}
	if a := r.ewma; a > 0 {
		keep := math.Pow(1-a, fdn)
		c.AvgWork = keep*c.AvgWork + (1-keep)*(dw/fdn)
		c.AvgCMPI = keep*c.AvgCMPI + (1-keep)*(dc/fdn)
	} else {
		n := float64(c.Count)
		c.AvgWork = (n*c.AvgWork + dw) / (n + fdn)
		c.AvgCMPI = (n*c.AvgCMPI + dc) / (n + fdn)
	}
	c.Count += int(dn)
}

// Lookup returns the class record for a function name and whether it
// exists, merging any pending shard observations first. The returned
// struct is a copy.
func (r *Registry) Lookup(function string) (Class, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pendingLocked() {
		r.foldLocked()
	}
	c, ok := r.classes[function]
	if !ok {
		return Class{}, false
	}
	return *c, true
}

// Len returns the number of known classes (pending shard observations
// merged first).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pendingLocked() {
		r.foldLocked()
	}
	return len(r.classes)
}

// Epoch returns a counter that advances on every observation — direct or
// shard-recorded — letting callers detect staleness cheaply. It is
// lock-free: atomic loads over the shards' published slot counts (one per
// shard × class), never the registry mutex.
func (r *Registry) Epoch() uint64 {
	e := r.epoch.Load()
	for _, sh := range r.set.Load().shards {
		e += uint64(sh.count())
	}
	return e
}

// Snapshot returns all classes sorted in descending order of average
// workload (the order Algorithm 1 consumes), ties broken by name for
// determinism. Pending shard observations are merged first — this is the
// merge-on-repartition entry point of the helper thread.
func (r *Registry) Snapshot() []Class { return r.AppendSnapshot(nil) }

// AppendSnapshot is Snapshot into a caller-owned buffer: it appends the
// sorted classes to buf and returns the extended slice, so a periodic
// caller (the allocator's helper tick) passes its previous result
// truncated to zero length and allocates nothing once the buffer has
// grown to the class count. Class names are unique, so the order is a
// strict total one and depends on neither the sort algorithm nor the
// order the classes were in before.
func (r *Registry) AppendSnapshot(buf []Class) []Class {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pendingLocked() {
		r.foldLocked()
	}
	slices.SortFunc(r.order, func(a, b *Class) int {
		if c := cmp.Compare(b.AvgWork, a.AvgWork); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	buf = slices.Grow(buf, len(r.order))
	for _, c := range r.order {
		buf = append(buf, *c)
	}
	return buf
}

// Reset discards all collected statistics, including shard observations
// not yet merged. The phase-change tests use it to model an application
// whose workload pattern shifts abruptly. Observations racing with Reset
// may land on either side of it.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.classes = make(map[string]*Class)
	r.order = nil
	for i, sh := range r.set.Load().shards {
		slots := sh.slots()
		cursors := r.cursorsLocked(i, slots)
		for j, sl := range slots {
			n, sw, sc := sl.read()
			if d := n - cursors[j].n; d > 0 {
				r.consumedTotal.Add(d)
			}
			cursors[j] = cursor{n: n, sumWork: sw, sumCMPI: sc}
		}
	}
	r.epoch.Add(1)
}

// String renders the registry contents for debugging.
func (r *Registry) String() string {
	s := r.Snapshot()
	out := "classes{"
	for i, c := range s {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s: n=%d w=%.3g", c.Name, c.Count, c.AvgWork)
	}
	return out + "}"
}
