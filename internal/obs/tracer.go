package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/trace"
)

// DefaultRingSize is the per-worker event capacity when NewTracer is
// given a non-positive size.
const DefaultRingSize = 4096

// Tracer collects scheduler events and metrics for one engine run: one
// drop-oldest ring per worker plus one shared ring for external and
// helper-thread events, global counters, and log-scale histograms of the
// latencies the paper's analysis cares about. All methods are safe for
// concurrent use; the per-worker Record* methods are wait-free (one
// fetch-add, one pointer store, a few counter adds).
//
// A Tracer is attached to a live runtime through runtime.Config.Obs. The
// runtime guards every emission with a single nil-check, so constructing
// a Tracer is what turns tracing on.
type Tracer struct {
	start time.Time
	rings []*ring // [workers]; rings[workers] is the external/helper ring

	spawns    atomic.Uint64
	pops      atomic.Uint64
	stealTry  atomic.Uint64
	steals    atomic.Uint64
	completes atomic.Uint64
	reparts   atomic.Uint64
	cancels   atomic.Uint64
	panics    atomic.Uint64
	stalls    atomic.Uint64
	resizes   atomic.Uint64

	// curWorkers is the live worker-pool size gauge, seeded with the
	// constructed worker count and updated by Resize events.
	curWorkers atomic.Int64

	stealLatency *Histogram
	repartDur    *Histogram
	queueDepth   *Histogram

	// classWork maps class name → *Histogram of normalized execution
	// nanoseconds (the live analogue of the paper's per-class cycle
	// counts feeding Algorithm 2).
	classWork sync.Map

	// ledger is the optional decision-ledger sink (nil = off) and taskSeq
	// issues the IDs joining decisions with their ends; see ledger.go.
	ledger  atomic.Pointer[ledgerRef]
	taskSeq atomic.Uint64
}

// NewTracer returns a tracer for the given worker count. ringSize is the
// per-worker event capacity, rounded up to a power of two
// (DefaultRingSize when <= 0).
func NewTracer(workers, ringSize int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	size := 1
	for size < ringSize {
		size <<= 1
	}
	t := &Tracer{
		start:        time.Now(),
		stealLatency: &Histogram{},
		repartDur:    &Histogram{},
		queueDepth:   &Histogram{},
	}
	for i := 0; i <= workers; i++ {
		t.rings = append(t.rings, newRing(size))
	}
	t.curWorkers.Store(int64(workers))
	return t
}

// Workers returns the worker count the tracer was built for.
func (t *Tracer) Workers() int { return len(t.rings) - 1 }

// Start returns the wall-clock instant event timestamps are relative to.
func (t *Tracer) Start() time.Time { return t.start }

func (t *Tracer) now() int64 { return time.Since(t.start).Nanoseconds() }

// ringFor maps a worker index to its ring; -1 (external spawns, the
// helper thread) maps to the shared last ring.
func (t *Tracer) ringFor(worker int) *ring {
	if worker < 0 || worker >= len(t.rings)-1 {
		return t.rings[len(t.rings)-1]
	}
	return t.rings[worker]
}

// Spawn records a task push: class was routed to worker's pool for
// cluster, which now holds depth tasks.
func (t *Tracer) Spawn(worker, cluster int, class string, depth int) {
	t.spawns.Add(1)
	t.queueDepth.Observe(int64(depth))
	t.ringFor(worker).put(Event{
		TS: t.now(), Kind: EvSpawn, Worker: int32(worker),
		Cluster: int32(cluster), Victim: -1, N: int32(depth), Class: class,
	})
}

// Pop records a local (own-pool) acquisition.
func (t *Tracer) Pop(worker, cluster int, class string) {
	t.pops.Add(1)
	t.ringFor(worker).put(Event{
		TS: t.now(), Kind: EvPop, Worker: int32(worker),
		Cluster: int32(cluster), Victim: -1, Class: class,
	})
}

// StealTry records a failed steal sweep over probes victim pools of one
// cluster.
func (t *Tracer) StealTry(worker, cluster, probes int) {
	t.stealTry.Add(uint64(probes))
	t.ringFor(worker).put(Event{
		TS: t.now(), Kind: EvStealTry, Worker: int32(worker),
		Cluster: int32(cluster), Victim: -1, N: int32(probes),
	})
}

// Steal records a successful steal: the victim probes it took within the
// cluster (the last one succeeded) and the latency since the acquisition
// walk started.
func (t *Tracer) Steal(worker, victim, cluster int, class string, probes int, latency time.Duration) {
	if probes < 1 {
		probes = 1
	}
	t.stealTry.Add(uint64(probes))
	t.steals.Add(1)
	t.stealLatency.Observe(latency.Nanoseconds())
	t.ringFor(worker).put(Event{
		TS: t.now(), Kind: EvSteal, Worker: int32(worker),
		Cluster: int32(cluster), Victim: int32(victim), N: int32(probes),
		Dur: latency.Nanoseconds(), Class: class,
	})
}

// Complete records a task completion with its Eq.2-normalized execution
// time.
func (t *Tracer) Complete(worker, cluster int, class string, work time.Duration) {
	t.completes.Add(1)
	t.classHist(class).Observe(work.Nanoseconds())
	t.ringFor(worker).put(Event{
		TS: t.now(), Kind: EvComplete, Worker: int32(worker),
		Cluster: int32(cluster), Victim: -1,
		Dur: work.Nanoseconds(), Class: class,
	})
}

// Repartition records one helper-thread rebuild of the class-to-cluster
// map: its duration and the new assignment.
func (t *Tracer) Repartition(dur time.Duration, part map[string]int) {
	t.reparts.Add(1)
	t.repartDur.Observe(dur.Nanoseconds())
	t.ringFor(-1).put(Event{
		TS: t.now(), Kind: EvRepartition, Worker: -1, Cluster: -1, Victim: -1,
		Dur: dur.Nanoseconds(), Part: part,
	})
	if ref := t.ledger.Load(); ref != nil {
		ref.sink.RecordRepartition(trace.RepartitionRecord{
			TS: t.now(), Dur: dur.Nanoseconds(), Classes: part,
		})
	}
}

// Cancel records a task dropped without running because its job context
// was already done (deadline exceeded or caller cancellation).
func (t *Tracer) Cancel(worker int, class string) {
	t.cancels.Add(1)
	t.ringFor(worker).put(Event{
		TS: t.now(), Kind: EvCancel, Worker: int32(worker),
		Cluster: -1, Victim: -1, Class: class,
	})
}

// Panic records a recovered task panic: the task of class panicked on
// worker and the isolation layer contained it.
func (t *Tracer) Panic(worker int, class string) {
	t.panics.Add(1)
	t.ringFor(worker).put(Event{
		TS: t.now(), Kind: EvPanic, Worker: int32(worker),
		Cluster: -1, Victim: -1, Class: class,
	})
}

// Stall records a watchdog detection: the task on worker has been
// running for age, past the stall threshold.
func (t *Tracer) Stall(worker int, age time.Duration) {
	t.stalls.Add(1)
	t.ringFor(-1).put(Event{
		TS: t.now(), Kind: EvStall, Worker: int32(worker),
		Cluster: -1, Victim: -1, Dur: age.Nanoseconds(),
	})
}

// Resize records an elastic-runtime pool resize from oldWorkers to
// newWorkers taking dur, and moves the worker-pool gauge.
func (t *Tracer) Resize(oldWorkers, newWorkers int, dur time.Duration) {
	t.resizes.Add(1)
	t.curWorkers.Store(int64(newWorkers))
	t.ringFor(-1).put(Event{
		TS: t.now(), Kind: EvResize, Worker: -1, Cluster: -1,
		Victim: int32(oldWorkers), N: int32(newWorkers), Dur: dur.Nanoseconds(),
	})
	if ref := t.ledger.Load(); ref != nil {
		ref.sink.RecordResize(trace.ResizeRecord{
			TS: t.now(), Old: oldWorkers, New: newWorkers,
		})
	}
}

// CurrentWorkers returns the worker-pool size gauge: the constructed
// count until the first Resize event, then the last resize's new count.
func (t *Tracer) CurrentWorkers() int { return int(t.curWorkers.Load()) }

func (t *Tracer) classHist(class string) *Histogram {
	if h, ok := t.classWork.Load(class); ok {
		return h.(*Histogram)
	}
	h, _ := t.classWork.LoadOrStore(class, &Histogram{})
	return h.(*Histogram)
}

// Counters is a point-in-time copy of the tracer's global counters.
type Counters struct {
	Spawns        uint64 `json:"spawns"`
	Pops          uint64 `json:"pops"`
	StealAttempts uint64 `json:"steal_attempts"`
	Steals        uint64 `json:"steals"`
	Completes     uint64 `json:"completes"`
	Repartitions  uint64 `json:"repartitions"`
	Cancels       uint64 `json:"cancels"`
	Panics        uint64 `json:"panics"`
	Stalls        uint64 `json:"stalls"`
	Resizes       uint64 `json:"resizes"`
	// Workers is the current worker-pool size gauge.
	Workers int64 `json:"workers"`
	// Events / Dropped report ring pressure: total events recorded and
	// how many were overwritten before being read.
	Events  uint64 `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// Counters snapshots the global counters.
func (t *Tracer) Counters() Counters {
	c := Counters{
		Spawns:        t.spawns.Load(),
		Pops:          t.pops.Load(),
		StealAttempts: t.stealTry.Load(),
		Steals:        t.steals.Load(),
		Completes:     t.completes.Load(),
		Repartitions:  t.reparts.Load(),
		Cancels:       t.cancels.Load(),
		Panics:        t.panics.Load(),
		Stalls:        t.stalls.Load(),
		Resizes:       t.resizes.Load(),
		Workers:       t.curWorkers.Load(),
	}
	for _, r := range t.rings {
		c.Events += r.written()
		c.Dropped += r.dropped()
	}
	return c
}

// StealLatency returns the steal-latency histogram (nanoseconds).
func (t *Tracer) StealLatency() HistSnapshot { return t.stealLatency.Snapshot() }

// RepartitionDuration returns the Algorithm 1 rebuild-time histogram
// (nanoseconds) — the live check on the paper's ~1 ms helper budget.
func (t *Tracer) RepartitionDuration() HistSnapshot { return t.repartDur.Snapshot() }

// QueueDepth returns the pool-depth-after-push histogram.
func (t *Tracer) QueueDepth() HistSnapshot { return t.queueDepth.Snapshot() }

// ClassWork returns the per-class normalized-execution-time histograms,
// keyed by class name.
func (t *Tracer) ClassWork() map[string]HistSnapshot {
	out := map[string]HistSnapshot{}
	t.classWork.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return out
}

// Events returns a best-effort snapshot of all buffered events, sorted by
// timestamp (sequence number as tiebreak). Under concurrent writers the
// snapshot may miss events that are mid-publish; quiesce the engine first
// for an exact trace.
func (t *Tracer) Events() []Event {
	var out []Event
	for _, r := range t.rings {
		out = r.snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
