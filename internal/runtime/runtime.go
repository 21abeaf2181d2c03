// Package runtime is a live work-stealing task runtime implementing the
// paper's scheduling policies on real goroutines: per-worker, per-cluster
// task pools, parent-first spawning, history-based allocation (Algorithms
// 1 and 2 via package history) and preference-based stealing (Algorithm 3).
//
// It plays the role of the paper's modified MIT Cilk runtime. The policy
// logic itself — spawn discipline, task-to-pool allocation, acquisition
// order — is not implemented here: the runtime consumes the same
// engine-agnostic sched.Strategy values as the discrete-event simulator,
// so every policy kind that does not snatch (Cilk, PFT, WATS, WATS-NP,
// WATS-Mem, Share) runs on real goroutines through Config.Policy.
//
// Because Go neither exposes core pinning nor per-core DVFS, core-speed
// asymmetry is emulated: each worker is assigned a relative speed from the
// configured AMC architecture and, after executing a task for d wall-clock
// seconds, stalls for d*(1/rel - 1), so a worker of relative speed 0.32
// delivers 0.32× the throughput of a fast one. Task workloads are measured
// as fastest-core seconds (Eq. 2: elapsed-on-worker × rel), exactly what
// the paper's performance counters report after normalization.
//
// Concurrency: the per-task path is lock-free end to end (see DESIGN.md
// §7). Workers record completed-task statistics into per-worker shard
// recorders (owner-only writes; the helper merges them into the canonical
// class table at reorganization time), the spawn path reads the published
// cluster map with one atomic load, and idle workers park on per-worker
// slots woken by targeted CAS+send instead of a global mutex broadcast.
//
// Elasticity: the worker set is malleable. All per-worker state lives in
// heap-allocated worker structs published through an RCU worker table
// (see resize.go): Resize adds workers (fresh deques, a fresh history
// shard) and retires them (the retiring worker drains its deques back
// into the shared inbox and folds its counters into a retired aggregate —
// no completion is ever lost or double-counted). External spawns always
// go through the inbox, so no queued task can strand on a worker that is
// about to leave.
//
// Shutdown semantics: Runtime.Spawn returns ErrShutdown once Shutdown has
// begun and the task is dropped. Ctx.Spawn (and Group.Spawn) report
// nothing: a task already running when Shutdown is called races with it,
// and children it spawns after the shutdown flag is set are silently
// dropped — the runtime only guarantees that such drops keep group and
// outstanding accounting consistent, so Wait and Group.Wait still return.
// Call Wait before Shutdown for a clean drain.
//
// One divergence from the simulator: goroutines cannot be preempted from
// the outside, so a snatch could never fire here — the paper performed
// snatches by swapping OS threads between cores, which has no goroutine
// equivalent. New therefore refuses any strategy whose snatch mode is not
// sched.SnatchNone (sched.CheckLive), naming the policy it would behave
// as: RTS would run as Cilk, WATS-TS as WATS.
//
// The runtime is a usable library: see examples/pipeline and cmd/watsd.
package runtime

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/amc"
	"wats/internal/counters"
	"wats/internal/deque"
	"wats/internal/fault"
	"wats/internal/history"
	"wats/internal/obs"
	"wats/internal/rng"
	"wats/internal/sched"
	"wats/internal/task"
	"wats/internal/trace"
)

// Config configures a Runtime.
type Config struct {
	// Arch gives each worker its emulated speed; the number of workers is
	// the architecture's core count. With Resize the shape may change
	// online — the c-group count and speeds stay fixed, only the per-group
	// core counts move.
	Arch *amc.Arch
	// Policy selects the scheduling policy by kind; every sched.Kind but
	// the snatching RTS and WATS-TS is accepted. Default sched.KindWATS.
	Policy sched.Kind
	// Strategy, when non-nil, overrides Policy with a caller-constructed
	// (unbound) strategy — configured WATS variants or custom policies —
	// under the same rule: it must not snatch.
	Strategy sched.Strategy
	// HelperPeriod is the cadence of the helper goroutine that re-runs
	// Algorithm 1 (default 1ms, as in §III-C). The helper is only started
	// for policies with a reorganization step.
	HelperPeriod time.Duration
	// Seed seeds victim selection.
	Seed uint64
	// DisableSpeedEmulation turns off the slowdown stalls (useful when
	// the runtime is used as a plain work-stealing pool).
	DisableSpeedEmulation bool
	// Deprecated: ignored; the worker pools are always Chase-Lev deques.
	LockFree bool
	// Obs, when non-nil, receives scheduler events (spawn, pop, steal
	// attempt/success, complete, repartition, resize) and feeds the
	// metrics endpoints. Every emission site is guarded by one nil-check,
	// so a nil Obs costs a single predictable branch (see
	// BenchmarkObsHook). Build it with obs.NewTracer(workers, 0); size it
	// for the largest worker count the runtime may grow to (events from
	// workers beyond that share the external ring).
	Obs *obs.Tracer
	// MaxQueuedTasks is the per-cluster queue depth beyond which a spawner
	// yields its quantum to let consumers catch up (0 = the default 4096).
	// Servers built over the runtime reuse it as their load-shedding
	// threshold, so one knob bounds both queue memory and admitted work.
	MaxQueuedTasks int
	// Fault, when non-nil, injects deterministic faults (panics, delays,
	// job cancellations) into task bodies before they run — the chaos
	// hook of internal/fault. Like Obs, the emission site is one
	// nil-check, so a runtime without injection pays a single branch.
	Fault *fault.Injector
	// StallThreshold, when > 0, starts a watchdog goroutine that flags
	// workers whose current task has been executing longer than the
	// threshold: an EvStall event + wats_stalls_total per stalled task,
	// and Runtime.StalledWorkers() for health endpoints. 0 disables the
	// watchdog and the per-task heartbeat stores entirely.
	StallThreshold time.Duration
	// Energy, when non-nil, overrides the DVFS model used for the
	// per-worker energy accounting (default counters.DefaultEnergyModel):
	// a worker's energy is Power(its c-group frequency) × busy-seconds,
	// the P = k·f³ + static model of §IV-E applied to measured busy time.
	Energy *counters.EnergyModel
}

// DefaultMaxQueuedTasks is the spawn-backpressure depth used when
// Config.MaxQueuedTasks is 0.
const DefaultMaxQueuedTasks = 1 << 12

// Task is one unit of work submitted to the runtime.
type liveTask struct {
	class string
	fn    func(ctx *Ctx)
	group *Group // non-nil for tasks spawned into a fork-join group
	// cancel, when non-nil, is the job context the task belongs to. A task
	// whose context is done by the time a worker acquires it is dropped
	// instead of run (counted in WorkerStats.Cancelled), and children it
	// would have spawned inherit the same context — so one expired
	// deadline abandons a whole job tree at its queue boundaries.
	cancel context.Context
	// abort, when non-nil, poisons the owning job: the runtime invokes it
	// with a *TaskPanicError when this task panics (after recovering the
	// panic), so the job's context can be cancelled and queued siblings
	// retired. Inherited by children like cancel. Must tolerate multiple
	// calls — several tasks of one job may panic; context.CancelCauseFunc
	// already does (first cause wins).
	abort func(error)
	// release, when non-nil, is invoked exactly once when the runtime is
	// finished with this task — after its body ran, or when it was dropped
	// at a cancellation or shutdown point. Pooled callers (the server's
	// job records) use it as the runtime-side unref of their record; the
	// runtime guarantees it never touches the task or its cancel context
	// again after release returns. Not inherited by children: it marks the
	// root of a job tree, not every task in it.
	release func()
	// ledgerID joins this task's decision record with its end record when
	// the decision ledger is capturing; 0 = not in the ledger.
	ledgerID uint64
}

// getTask returns a pooled (or fresh) liveTask with zero-valued fields.
func (rt *Runtime) getTask() *liveTask {
	if t, ok := rt.taskFree.Get().(*liveTask); ok {
		return t
	}
	return &liveTask{}
}

// retireTask is the single point where the runtime lets go of a task: the
// struct returns to the pool first (so no field survives into the next
// spawn) and the release callback runs last, after which the caller-owned
// record may be recycled. Safe for tasks constructed outside the pool —
// they simply join it.
func (rt *Runtime) retireTask(t *liveTask) {
	rel := t.release
	*t = liveTask{}
	rt.taskFree.Put(t)
	if rel != nil {
		rel()
	}
}

// Ctx is passed to every task function; it identifies the executing
// worker and allows parent-first child spawning. It is owned by the
// executing worker and valid only for the duration of the task function —
// do not retain it past the function's return or hand it to other
// goroutines (the worker reuses one Ctx across tasks to keep the per-task
// path allocation-free).
type Ctx struct {
	rt     *Runtime
	w      *worker
	class  string          // class of the task being executed (spawn-edge tracking)
	cancel context.Context // job context of the running task (nil = not cancellable)
	abort  func(error)     // job poison callback (nil = no job to poison)
	// Worker is the executing worker's stable slot id.
	Worker int
	// Rel is the executing worker's emulated relative speed.
	Rel float64
}

// Spawn submits a child task from inside a running task (parent-first:
// the child is queued and the parent continues). The child inherits the
// running task's job context, so cancelling the job stops the whole tree.
func (c *Ctx) Spawn(class string, fn func(ctx *Ctx)) {
	t := c.rt.getTask()
	t.class, t.fn, t.cancel, t.abort = class, fn, c.cancel, c.abort
	c.rt.spawnTask(c.w, c.class, t)
}

// Err reports whether the running task's job context has been cancelled
// (deadline exceeded or caller cancellation); nil for tasks submitted
// without a context. Long-running task functions should poll it at
// natural checkpoints and return early when non-nil — between-task
// cancellation is automatic, within-task cancellation is cooperative.
func (c *Ctx) Err() error {
	if c.cancel == nil {
		return nil
	}
	return c.cancel.Err()
}

// Context returns the running task's job context (context.Background()
// for tasks submitted without one), for task functions that call
// context-aware code.
func (c *Ctx) Context() context.Context {
	if c.cancel == nil {
		return context.Background()
	}
	return c.cancel
}

// Group returns a new fork-join scope: Spawn children into it and Wait
// for exactly those children (and their transitive group spawns), the
// runtime's equivalent of cilk_spawn/cilk_sync.
func (c *Ctx) Group() *Group {
	return &Group{rt: c.rt}
}

// Group is a structured fork-join scope over the runtime.
type Group struct {
	rt      *Runtime
	pending atomic.Int64
}

// Spawn submits a child task into the group (parent-first). Like
// Ctx.Spawn, the child inherits the spawning task's job context.
func (g *Group) Spawn(ctx *Ctx, class string, fn func(ctx *Ctx)) {
	g.pending.Add(1)
	t := g.rt.getTask()
	t.class, t.fn, t.group, t.cancel, t.abort = class, fn, g, ctx.cancel, ctx.abort
	g.rt.spawnTask(ctx.w, ctx.class, t)
}

// Wait blocks until every task spawned into the group has completed.
// Instead of idling, the calling worker helps: it keeps acquiring and
// executing queued tasks (its own first, then stolen ones) until the
// group drains — the standard help-first join of work-stealing runtimes,
// which keeps the machine busy and avoids deadlock when all workers sync.
// When nothing is runnable anywhere, the worker parks on its per-worker
// slot (like the worker loop) until new work arrives or the group's
// stragglers, running on other workers, drain it (group drains sweep all
// parked workers — including workers mid-retirement, which stay in the
// wake-all set until they actually exit). Wait returns early on Shutdown,
// since abandoned group tasks would otherwise never drain.
func (g *Group) Wait(ctx *Ctx) {
	rt := g.rt
	w := ctx.w
	r := w.helpRng
	ready := func() bool { return g.pending.Load() <= 0 || rt.haveWork(w) }
	spins := 0
	for g.pending.Load() > 0 {
		if t := rt.acquire(w, r); t != nil {
			rt.execute(w, t)
			spins = 0
			continue
		}
		w.compl.timeValid = false
		rt.flush(w)
		if spins < parkSpins {
			spins++
			stdruntime.Gosched()
			continue
		}
		if rt.park(w, ready) {
			return
		}
		spins = 0
	}
}

// paddedCount is an atomic counter on its own cache line (the per-cluster
// counters are written by every worker; without padding they would false-
// share one line).
type paddedCount struct {
	v atomic.Int64
	_ [56]byte
}

// complBatch is one worker's completion accounting between idle points:
// plain owner-only fields, folded into the shared atomics (outstanding,
// tasksRun, busy) by flush when the worker next runs out of work. Batching
// keeps three atomic read-modify-writes off the per-task path; the only
// reader who needs exact values — Wait(), at the outstanding==0 crossing —
// is by construction only satisfied once every worker has gone idle and
// flushed. Stats() reads may lag by one batch while a worker stays busy
// (they are documented racy point-reads). A retiring worker flushes before
// it exits, so retirement never strands a batch.
type complBatch struct {
	done  int64 // completed tasks not yet folded into outstanding
	tasks int64 // pending tasksRun delta
	busy  int64 // pending busy-nanos delta
	// lastEnd caches the monotonic end-of-task reading while timeValid:
	// when tasks run back to back, the next task starts its measurement
	// from the previous task's end instead of reading the clock again
	// (clock reads are a measurable share of a short task). The cache is
	// invalidated at every voluntary blocking point — idle acquisition,
	// parking, the speed-emulation stall — so only the acquisition walk
	// (tens of ns, identical for every class) is ever attributed to the
	// next task's workload. Asynchronous preemption between two tasks
	// lands in the next task's measurement, the same error class that
	// wall-clock timing already admits for preemption inside a task.
	lastEnd   time.Duration
	timeValid bool
	// seq counts tasks this worker has executed, the per-worker task
	// index fault injection keys its deterministic schedule on. Only
	// advanced when an injector is configured.
	seq uint64
	_   [16]byte
}

// worker is one live worker's complete state: pools, counters, parking
// slot, statistics recorder. Workers are heap-allocated and published
// through the RCU worker table, never stored by value, so hot-adding and
// retiring a worker is a pointer-slice swap — no other worker's state
// moves. The id is a stable slot number: it keys the history shard, the
// obs ring and the Stats row, and is recycled through a free list after
// retirement (safe because a retired worker provably exited before its id
// is reused — the old and new owner of a shard never overlap).
type worker struct {
	id   int
	grp  int     // c-group index
	rel  float64 // emulated relative speed Fi/F1
	freq float64 // c-group frequency, for the energy model

	// pools[c] is the worker's cluster-c task pool: a lock-free Chase-Lev
	// deque, so only this worker pushes and pops; thieves steal the top.
	pools []*deque.ChaseLev[liveTask]
	// order is the worker's acquisition walk (strat.AcquireOrder of its
	// c-group), cached so the walk costs no interface call per acquire.
	order []int
	// ctx is the worker's reusable task context: execute saves and
	// restores the class field around each task so nested execution
	// (Group.Wait helping) stays correct without a per-task allocation.
	ctx   *Ctx
	compl complBatch
	pk    parker
	// rec is the worker's owner-only statistics sink (the lock-free
	// record step of Algorithm 2).
	rec     sched.Recorder
	helpRng *rng.Source

	tasksRun      atomic.Int64
	steals        atomic.Int64
	stealAttempts atomic.Int64
	cancelled     atomic.Int64
	panics        atomic.Int64
	busy          atomic.Int64
	// hb is the worker's heartbeat: 1 + the start time (nanos since base)
	// of the task it is currently executing, or 0 while idle. Owner-
	// written, watchdog-read; only touched when Config.StallThreshold > 0.
	hb paddedCount

	// retire asks the worker to exit: checked at the top of the worker
	// loop, so the current task (and any Group.Wait it is blocked in)
	// always completes first. Set only by Resize, under resizeMu.
	retire atomic.Bool
	// gone is closed when the worker goroutine exits (any path: retire or
	// shutdown). Resize awaits it before folding the worker's counters.
	gone chan struct{}
}

// workerTable is the RCU-published view of the worker set. ws are the
// active workers: steal victims, wake targets, the denominators of shape
// math. all additionally holds workers mid-retirement (flagged but not
// yet exited): they must stay visible to wakeAll (a group drain must
// reach a retiring worker parked in Group.Wait) and to Stats/watchdog
// until their counters are folded. Both slices are sorted by id and
// immutable once published.
type workerTable struct {
	ws  []*worker
	all []*worker
	// eligible[c] lists the active workers whose acquisition walk includes
	// cluster c — the targets a cluster-c spawn may need to wake.
	eligible [][]*worker
}

func makeTable(ws, all []*worker, k int) *workerTable {
	t := &workerTable{ws: ws, all: all, eligible: make([][]*worker, k)}
	for _, w := range ws {
		for _, cl := range w.order {
			if cl >= 0 && cl < k {
				t.eligible[cl] = append(t.eligible[cl], w)
			}
		}
	}
	return t
}

func sortWorkers(ws []*worker) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
}

// flush folds worker w's batched completion accounting into the shared
// counters, broadcasting the outstanding==0 crossing for Wait(). Owner-only
// (worker w's goroutine); called whenever acquisition comes up empty and on
// the retirement path, so a worker never parks — and the runtime never
// quiesces — with unflushed completions.
func (rt *Runtime) flush(w *worker) {
	b := &w.compl
	if b.done == 0 && b.tasks == 0 {
		return
	}
	w.tasksRun.Add(b.tasks)
	w.busy.Add(b.busy)
	done := b.done
	b.done, b.tasks, b.busy = 0, 0, 0
	if done != 0 && rt.outstanding.Add(-done) == 0 {
		rt.mu.Lock()
		rt.cond.Broadcast()
		rt.mu.Unlock()
	}
}

// pool is the shared inbox: a mutex-guarded deque that any goroutine may
// push to, unlike the owner-only worker pools. depth mirrors the deque
// length so take-side probes — every acquisition walk starts here, and
// the inbox is nearly always empty — gate on one atomic load instead of
// the mutex.
type pool struct {
	depth atomic.Int64
	mu    sync.Mutex
	d     deque.Deque[*liveTask]
}

func (p *pool) push(t *liveTask) {
	p.mu.Lock()
	p.d.PushBottom(t)
	p.depth.Add(1)
	p.mu.Unlock()
}

func (p *pool) stealTop() *liveTask {
	if p.depth.Load() == 0 {
		return nil
	}
	p.mu.Lock()
	t, ok := p.d.PopTop()
	if ok {
		p.depth.Add(-1)
	}
	p.mu.Unlock()
	if !ok {
		return nil
	}
	return t
}

func (p *pool) empty() bool { return p.depth.Load() == 0 }

func (p *pool) size() int { return int(p.depth.Load()) }

// WorkerStats reports one worker's counters.
type WorkerStats struct {
	Worker int
	Group  int
	Rel    float64
	// Retiring marks a worker that has been asked to exit by a resize but
	// has not finished its current task yet.
	Retiring bool
	TasksRun int64
	// Steals counts successful steals; StealAttempts counts every
	// victim-pool probe of the acquisition walk, successful or not —
	// attempts minus steals is the failed-probe traffic that reveals
	// contention a success-only count hides.
	Steals        int64
	StealAttempts int64
	// Cancelled counts tasks this worker dropped without running because
	// their job context was already done when acquired (deadline exceeded
	// or caller cancellation).
	Cancelled int64
	// Panics counts task panics this worker recovered; each one poisoned
	// only its own job, never the worker.
	Panics    int64
	BusyNanos int64
	// EnergyJoules is the modeled energy of the worker's busy time:
	// Power(its c-group frequency) × busy-seconds under the DVFS model
	// (P = k·f³ + static, §IV-E). A model estimate, not a measurement.
	EnergyJoules float64
}

// retiredAgg accumulates the counters of retired workers so totals stay
// exact across shrinks. Written under resizeMu; read atomically anywhere.
type retiredAgg struct {
	workers       atomic.Int64
	tasksRun      atomic.Int64
	steals        atomic.Int64
	stealAttempts atomic.Int64
	cancelled     atomic.Int64
	panics        atomic.Int64
	busy          atomic.Int64
	joulesBits    atomic.Uint64 // math.Float64bits of accumulated joules
}

// Runtime is the live scheduler instance.
type Runtime struct {
	cfg   Config
	strat sched.Strategy
	// arch is the current architecture shape, republished by Resize (the
	// c-group count and speeds never change, only the per-group counts).
	arch    atomic.Pointer[amc.Arch]
	f1      float64 // fastest frequency, immutable across resizes
	k       int     // pool columns per worker (strat.Clusters())
	central bool    // strat.Central(): all work flows through the inbox

	// table is the RCU-published worker set (see workerTable). Readers —
	// the acquisition walk, wakes, stats — load it once per operation;
	// Resize builds a new table and swaps the pointer.
	table atomic.Pointer[workerTable]
	// resizeMu serializes Resize calls and guards nextID/freeIDs and the
	// retired aggregate's read-modify-write folds.
	resizeMu sync.Mutex
	nextID   int
	freeIDs  []int
	retired  retiredAgg
	energy   counters.EnergyModel

	// inbox receives every external (non-worker) spawn and every spawn
	// under central-queue policies (Share). Routing external work through
	// the inbox (rather than some worker's pools) is what makes retirement
	// race-free: a retiring worker's pools only ever receive pushes from
	// the retiring worker itself, so its final drain leaves nothing behind.
	// The depth gate keeps the acquisition walk off the inbox lock while
	// it is empty.
	inbox *pool
	// clusterWork[cl] counts tasks queued in cluster cl across all worker
	// pools (never the inbox). The acquisition walk and the park-readiness
	// check gate on it, so scanning an empty cluster costs one atomic load
	// instead of a probe of every victim pool. Pushes increment before the
	// wake; takes decrement only on success — the counter may transiently
	// exceed the truth (spurious walk) or trail a just-pushed task (the
	// wake that follows the increment closes that window).
	clusterWork []paddedCount

	// nparked counts currently parked workers so the spawn-side wake
	// check is one atomic load (see park.go).
	nparked atomic.Int64

	outstanding atomic.Int64
	// mu/cond serve only the external Wait(): completions touch them just
	// at the outstanding==0 crossing, never on the per-task path.
	mu       sync.Mutex
	cond     *sync.Cond
	shutdown atomic.Bool
	// helperDone stops the helper goroutine promptly on Shutdown instead
	// of letting it linger until the next HelperPeriod tick. Nil when the
	// policy has no reorganization step (no helper started).
	helperDone chan struct{}

	// flt, when non-nil, plans deterministic fault injection for each
	// task body; consulted behind one nil-check like obs.
	flt *fault.Injector
	// hbOn records whether heartbeats are collected (StallThreshold > 0).
	hbOn         bool
	watchdogDone chan struct{}
	// maxQueued is the spawn-backpressure depth (Config.MaxQueuedTasks).
	maxQueued int64
	// obs, when non-nil, receives scheduler events; every emission is
	// behind one nil-check so disabled tracing costs a single branch.
	obs *obs.Tracer
	// explain is the strategy's optional allocation introspection
	// (sched.Explainer), asserted once at construction and consulted only
	// on the ledger-enabled path; nil when the strategy cannot explain
	// itself.
	explain sched.Explainer
	// base anchors task timing: measuring with two monotonic-only
	// time.Since(base) reads instead of time.Now()+time.Since skips the
	// wall-clock read, which is a measurable share of a no-op task.
	base time.Time

	// taskFree recycles liveTask structs between spawns so the steady-state
	// spawn→execute path performs no allocation (DESIGN.md §12). Tasks are
	// returned by retireTask at every point the runtime lets go of one.
	taskFree sync.Pool

	wg sync.WaitGroup
}

// New starts a runtime with one worker goroutine per core of cfg.Arch.
func New(cfg Config) (*Runtime, error) {
	if cfg.Arch == nil {
		return nil, fmt.Errorf("runtime: Config.Arch is required")
	}
	if cfg.HelperPeriod == 0 {
		cfg.HelperPeriod = time.Millisecond
	}
	strat := cfg.Strategy
	if strat == nil {
		kind := cfg.Policy
		if kind == "" {
			kind = sched.KindWATS
		}
		var err error
		strat, err = sched.NewStrategy(kind)
		if err != nil {
			return nil, err
		}
	}
	if err := sched.CheckLive(strat); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	strat.Bind(cfg.Arch)
	n := cfg.Arch.NumCores()
	rt := &Runtime{
		cfg:       cfg,
		strat:     strat,
		f1:        cfg.Arch.FastestFreq(),
		k:         strat.Clusters(),
		central:   strat.Central(),
		maxQueued: int64(cfg.MaxQueuedTasks),
		obs:       cfg.Obs,
		flt:       cfg.Fault,
		energy:    counters.DefaultEnergyModel,
		base:      time.Now(),
	}
	rt.arch.Store(cfg.Arch)
	if ex, ok := strat.(sched.Explainer); ok {
		rt.explain = ex
	}
	if cfg.Energy != nil {
		rt.energy = *cfg.Energy
	}
	if rt.maxQueued <= 0 {
		rt.maxQueued = DefaultMaxQueuedTasks
	}
	rt.cond = sync.NewCond(&rt.mu)
	rt.inbox = &pool{}
	rt.clusterWork = make([]paddedCount, rt.k)
	if cfg.StallThreshold > 0 {
		rt.hbOn = true
		rt.watchdogDone = make(chan struct{})
	}
	ws := make([]*worker, 0, n)
	for id := 0; id < n; id++ {
		ws = append(ws, rt.newWorker(id, cfg.Arch.GroupOf(id)))
	}
	rt.nextID = n
	rt.table.Store(makeTable(ws, ws, rt.k))
	for _, w := range ws {
		rt.startWorker(w)
	}
	if strat.Reorganizes() {
		rt.helperDone = make(chan struct{})
		rt.wg.Add(1)
		go rt.helper()
	}
	if rt.hbOn {
		rt.wg.Add(1)
		go rt.watchdog()
	}
	return rt, nil
}

// newWorker allocates one worker for slot id in c-group grp: fresh pools,
// a fresh (or revived, on id reuse) history shard via the strategy's
// growable recorder set, its own parking slot and rng streams. The caller
// publishes it in a worker table before starting it.
func (rt *Runtime) newWorker(id, grp int) *worker {
	arch := rt.arch.Load()
	freq := arch.Groups[grp].Freq
	w := &worker{
		id:      id,
		grp:     grp,
		freq:    freq,
		rel:     freq / rt.f1,
		order:   append([]int(nil), rt.strat.AcquireOrder(grp)...),
		rec:     rt.strat.Recorder(id),
		helpRng: rng.New(rt.cfg.Seed ^ 0xABCD + uint64(id)*7919 + 3),
		gone:    make(chan struct{}),
	}
	w.pools = make([]*deque.ChaseLev[liveTask], rt.k)
	for c := range w.pools {
		w.pools[c] = deque.NewChaseLev[liveTask](32)
	}
	w.pk.ch = make(chan struct{}, 1)
	w.ctx = &Ctx{rt: rt, w: w, Worker: id, Rel: w.rel}
	return w
}

// startWorker launches w's goroutine. The worker must already be visible
// in the published table, or a spawner could push work it can see and
// then fail to wake it.
func (rt *Runtime) startWorker(w *worker) {
	rt.wg.Add(1)
	go rt.run(w, rng.New(rt.cfg.Seed+uint64(w.id)*0x9E3779B97F4A7C15+1))
}

// clusterOf routes a class through the strategy's allocation axis, clamped
// to the pool columns actually built.
func (rt *Runtime) clusterOf(class string) int {
	c := rt.strat.ClusterOf(class)
	if c >= rt.k {
		c = rt.k - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// ErrShutdown is returned by Spawn once Shutdown has begun: the task was
// not accepted and will never run.
var ErrShutdown = errors.New("runtime: Spawn after Shutdown")

// Spawn submits a root task through the shared inbox, from which the next
// idle worker — fastest first in practice, since fast workers drain their
// queues soonest — picks it up. External spawns never target a specific
// worker's pools: workers own their push ends (Chase-Lev) and may
// retire at any time (elastic mode), so the inbox is the only safe
// mailbox. After Shutdown it drops the task and returns ErrShutdown.
func (rt *Runtime) Spawn(class string, fn func(ctx *Ctx)) error {
	return rt.SpawnJobRelease(nil, nil, nil, class, fn)
}

// SpawnContext submits a root task bound to a job context: if ctx is done
// before a worker gets to the task (deadline exceeded or cancellation),
// the task is dropped instead of run, and every child it spawns inherits
// the same context. It is the submission path for network jobs with
// deadlines (see internal/server). A ctx that is already done still
// enqueues: the drop is accounted on a worker, visible in Stats, and
// Wait's bookkeeping stays uniform.
func (rt *Runtime) SpawnContext(ctx context.Context, class string, fn func(ctx *Ctx)) error {
	return rt.SpawnJobRelease(ctx, nil, nil, class, fn)
}

// SpawnJob is SpawnContext plus a poison callback: when any task of the
// job's tree (the root or a transitively spawned child) panics, the
// runtime recovers the panic — the worker survives and keeps scheduling —
// and invokes abort with a *TaskPanicError. Callers pass the job
// context's context.CancelCauseFunc (wrapped to drop the cause
// conversion) so the panic cancels the whole job: queued siblings are
// then retired at the existing cancellation points with exact group
// accounting, and the caller reads the cause back via context.Cause.
// abort must tolerate being called more than once (several tasks of one
// job may panic); context.CancelCauseFunc already does.
func (rt *Runtime) SpawnJob(ctx context.Context, abort func(error), class string, fn func(ctx *Ctx)) error {
	return rt.SpawnJobRelease(ctx, abort, nil, class, fn)
}

// SpawnJobRelease is SpawnJob plus a release callback: the runtime invokes
// release exactly once when it is finished with the root task — after its
// body ran, or when it was dropped at a cancellation point — and never
// touches the task, its context or its callbacks again afterwards. Pooled
// callers use it as the runtime-side unref of a recycled job record. When
// ErrShutdown is returned the task was never accepted and release will NOT
// be called; the caller keeps its reference. ctx, abort and release may
// each be nil.
func (rt *Runtime) SpawnJobRelease(ctx context.Context, abort func(error), release func(), class string, fn func(ctx *Ctx)) error {
	if rt.shutdown.Load() {
		return ErrShutdown
	}
	t := rt.getTask()
	t.class, t.fn, t.cancel, t.abort, t.release = class, fn, ctx, abort, release
	return rt.spawnRoot(t)
}

func (rt *Runtime) spawnRoot(t *liveTask) error {
	if rt.shutdown.Load() {
		t.release = nil // never accepted: the caller keeps its reference
		rt.retireTask(t)
		return ErrShutdown
	}
	class := t.class
	rt.outstanding.Add(1)
	// The ledger record (which assigns t.ledgerID) must be written BEFORE
	// the push: once the task is visible in the inbox a worker may execute
	// and retire it, after which t must not be touched.
	if rt.obs != nil && rt.obs.LedgerOn() {
		rt.recordDecision(t, -1, rt.inbox.size()+1)
	}
	rt.inbox.push(t)
	if rt.obs != nil {
		rt.obs.Spawn(-1, -1, class, rt.inbox.size())
	}
	rt.wakeOne(-1)
	if int64(rt.inbox.size()) >= rt.maxQueued {
		// The spawner is far ahead of the consumers: yield instead of
		// ballooning the queue (deep queues cost GC scan time and memory).
		stdruntime.Gosched()
	}
	return nil
}

// spawnTask routes one worker-side task: the spawn edge is reported to the
// strategy (divide-and-conquer detection), then the task goes to the
// spawning worker's pool for its class's cluster — or the central inbox
// for central-queue policies.
func (rt *Runtime) spawnTask(w *worker, parentClass string, t *liveTask) {
	if rt.shutdown.Load() {
		if t.group != nil && t.group.pending.Add(-1) == 0 {
			rt.wakeAll()
		}
		rt.retireTask(t)
		return
	}
	if t.cancel != nil && t.cancel.Err() != nil {
		// The job is already dead: don't let an expired task tree keep
		// fanning out. The drop is accounted exactly like an acquire-time
		// drop so cancellations stay visible in Stats.
		w.cancelled.Add(1)
		if rt.obs != nil {
			rt.obs.Cancel(w.id, t.class)
		}
		if t.group != nil && t.group.pending.Add(-1) == 0 {
			rt.wakeAll()
		}
		rt.retireTask(t)
		return
	}
	class := t.class
	if parentClass != "" {
		rt.strat.NoteSpawn(parentClass, class)
	}
	rt.outstanding.Add(1)
	// As in spawnRoot: the ledger record (which writes t.ledgerID) must
	// precede the push — a worker may execute and retire the task the
	// moment it becomes visible.
	if rt.central {
		if rt.obs != nil && rt.obs.LedgerOn() {
			rt.recordDecision(t, w.id, rt.inbox.size()+1)
		}
		rt.inbox.push(t)
		if rt.obs != nil {
			rt.obs.Spawn(w.id, 0, class, rt.inbox.size())
		}
		rt.wakeOne(-1)
	} else {
		cl := rt.clusterOf(class)
		p := w.pools[cl]
		if rt.obs != nil && rt.obs.LedgerOn() {
			rt.recordDecision(t, w.id, p.Len()+1)
		}
		p.PushBottom(t)
		queued := rt.clusterWork[cl].v.Add(1)
		if rt.obs != nil {
			rt.obs.Spawn(w.id, cl, class, p.Len())
		}
		rt.wakeOne(cl)
		if queued >= rt.maxQueued {
			// The spawner is far ahead of the consumers: yield instead of
			// ballooning the queue (deep queues cost GC scan time and
			// memory; on a loaded machine the producing goroutine would
			// otherwise burn its whole quantum enqueueing).
			stdruntime.Gosched()
		}
	}
}

// recordDecision assembles and emits one decision-ledger record for t:
// the chosen routing (worker, cluster, observed queue depth), the
// allocation rule that fired, and the class's TC(f, n, w) history at this
// instant. Called only on the ledger-enabled path (callers check
// rt.obs.LedgerOn() first), so the record assembly — including one
// cold-path registry lookup in the explainer — costs nothing when
// capture is off.
func (rt *Runtime) recordDecision(t *liveTask, worker, depth int) {
	id := rt.obs.NextTaskID()
	t.ledgerID = id
	d := trace.Decision{
		ID:     id,
		Class:  t.class,
		Worker: int32(worker),
		Depth:  int32(depth),
	}
	if rt.explain != nil {
		ad := rt.explain.ExplainAllocation(t.class)
		d.Cluster = int32(ad.Cluster)
		d.Rule = ad.Rule
		d.EstWork = ad.EstWork
		d.EstCount = ad.EstCount
	} else {
		d.Cluster = int32(rt.clusterOf(t.class))
		d.Rule = "unexplained"
		d.EstWork = rt.strat.EstimateWork(t.class)
	}
	rt.obs.Decision(d)
}

// QueuedTasks returns the current number of queued (spawned but not yet
// acquired) tasks across every cluster and the inbox — a racy point-read,
// cheap enough for per-request admission checks. MaxQueuedTasks returns
// the configured backpressure depth the count should be compared against.
func (rt *Runtime) QueuedTasks() int {
	n := int64(rt.inbox.size())
	for cl := range rt.clusterWork {
		n += rt.clusterWork[cl].v.Load()
	}
	return int(n)
}

// MaxQueuedTasks returns the effective Config.MaxQueuedTasks.
func (rt *Runtime) MaxQueuedTasks() int { return int(rt.maxQueued) }

// acquire implements the acquisition axis for a worker: drain the inbox,
// then walk the strategy's cluster order — own pool pop, then steal from
// random victims — exactly as the sim adapter does on virtual cores.
// Victims come from the published worker table, so a worker hot-added a
// microsecond ago is already stealable and a retiring one no longer is
// (its leftover tasks drain through the inbox). Returns nil when no task
// is available anywhere; there is no snatch fallback (see the package
// comment).
func (rt *Runtime) acquire(w *worker, r *rng.Source) *liveTask {
	var t0 time.Time
	if rt.obs != nil {
		t0 = time.Now()
	}
	// stealTop's depth gate keeps the common case (empty inbox) off the
	// shared inbox lock.
	if t := rt.inbox.stealTop(); t != nil {
		if rt.obs != nil {
			rt.obs.Pop(w.id, -1, t.class)
		}
		return t
	}
	if rt.central {
		return nil
	}
	var victims []*worker
	for _, cl := range w.order {
		// One load skips the whole cluster when nothing is queued in it —
		// the common case for most clusters of the walk.
		if rt.clusterWork[cl].v.Load() == 0 {
			continue
		}
		if t, ok := w.pools[cl].PopBottom(); ok {
			rt.clusterWork[cl].v.Add(-1)
			if rt.obs != nil {
				rt.obs.Pop(w.id, cl, t.class)
			}
			return t
		}
		if victims == nil {
			victims = rt.table.Load().ws
		}
		probes := int64(0)
		n := len(victims)
		start := r.Intn(n)
		for i := 0; i < n; i++ {
			v := victims[(start+i)%n]
			if v == w {
				continue
			}
			probes++
			if t, ok := v.pools[cl].Steal(); ok {
				rt.clusterWork[cl].v.Add(-1)
				w.steals.Add(1)
				w.stealAttempts.Add(probes)
				if rt.obs != nil {
					rt.obs.Steal(w.id, v.id, cl, t.class, int(probes), time.Since(t0))
				}
				return t
			}
		}
		w.stealAttempts.Add(probes)
		if rt.obs != nil && probes > 0 {
			rt.obs.StealTry(w.id, cl, int(probes))
		}
	}
	return nil
}

// parkSpins is how many times an idle worker yields the processor and
// retries acquisition before truly parking. A park/wake cycle costs a
// channel sleep and a scheduler wakeup; a yield is far cheaper and gives
// the producers a chance to publish more work. Kept small so an idle
// runtime still quiesces to parked workers almost immediately.
const parkSpins = 2

// run is the worker loop. The retire check sits at the top: a worker asked
// to leave finishes its current task (and any Group.Wait it is helping in)
// first, then drains its pools back into the shared inbox, flushes its
// completion batch and exits — see retireDrain in resize.go for the safety
// argument.
func (rt *Runtime) run(w *worker, r *rng.Source) {
	defer rt.wg.Done()
	defer close(w.gone)
	ready := func() bool { return w.retire.Load() || rt.haveWork(w) }
	spins := 0
	for {
		if w.retire.Load() {
			rt.retireDrain(w)
			return
		}
		t := rt.acquire(w, r)
		if t == nil {
			w.compl.timeValid = false
			rt.flush(w)
			if spins < parkSpins {
				spins++
				stdruntime.Gosched()
				continue
			}
			if rt.park(w, ready) {
				return
			}
			spins = 0
			continue
		}
		spins = 0
		rt.execute(w, t)
	}
}

// TaskPanicError is how a panicking task poisons its job: the runtime
// recovers the panic in execute, wraps it with the task's class, the
// worker it ran on and the captured stack, and hands it to the job's
// abort callback (see SpawnJob). It is also the context.Cause callers
// observe on a panic-cancelled job context.
type TaskPanicError struct {
	Class  string
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *TaskPanicError) Error() string {
	return fmt.Sprintf("runtime: task panic in class %q on worker %d: %v", e.Class, e.Worker, e.Value)
}

// runGuarded runs one task body with fault injection and panic
// isolation. A panic in the body (injected or genuine) is recovered and
// returned instead of unwinding the worker goroutine — the caller
// (execute) completes the task's timing and group accounting exactly as
// if the body had returned, so one poisoned task never corrupts
// outstanding counts or kills a worker. The open-coded defer costs ~1 ns
// on the per-task path (see DESIGN.md §9).
func (rt *Runtime) runGuarded(ctx *Ctx, w *worker, t *liveTask) (pv *TaskPanicError) {
	defer func() {
		if r := recover(); r != nil {
			pv = &TaskPanicError{Class: t.class, Worker: w.id, Value: r, Stack: debug.Stack()}
		}
	}()
	if rt.flt != nil {
		rt.injectFault(w, t)
	}
	t.fn(ctx)
	return nil
}

// injectFault consults the configured injector for this task and applies
// the planned fault: a panic (recovered by runGuarded's isolation, so
// injected panics exercise the real recovery path end to end), a delay
// before the body runs, or an abort of the owning job.
func (rt *Runtime) injectFault(w *worker, t *liveTask) {
	w.compl.seq++
	act := rt.flt.Plan(t.class, w.id, w.compl.seq)
	switch act.Kind {
	case fault.Panic:
		panic(fault.PanicValue{Class: t.class, Worker: w.id, Index: w.compl.seq})
	case fault.Delay:
		rt.sleepUnlessShutdown(act.Delay)
	case fault.Cancel:
		if t.abort != nil {
			t.abort(context.Canceled)
		}
	}
}

// execute runs one task on worker w: timing, speed-emulation stall,
// Eq. 2 workload observation and completion accounting. It is shared by
// the worker loop and by Group.Wait's helping path.
func (rt *Runtime) execute(w *worker, t *liveTask) {
	if t.cancel != nil && t.cancel.Err() != nil {
		// The job's deadline passed (or it was cancelled) while this task
		// sat queued: drop it without running. Group and outstanding
		// accounting still happen so Wait and Group.Wait stay correct —
		// a cancelled task "completes" instantly, it just never executes
		// or contributes a workload observation.
		w.cancelled.Add(1)
		if rt.obs != nil {
			rt.obs.Cancel(w.id, t.class)
			if t.ledgerID != 0 {
				rt.obs.TaskCancelled(t.ledgerID, w.id)
			}
		}
		if t.group != nil && t.group.pending.Add(-1) == 0 {
			rt.wakeAll()
		}
		w.compl.done++
		rt.retireTask(t)
		return
	}
	// Reuse the worker's Ctx, saving the class and job context around the
	// call: execution nests when a task helps inside Group.Wait.
	ctx := w.ctx
	prev := ctx.class
	prevCancel := ctx.cancel
	prevAbort := ctx.abort
	ctx.class = t.class
	ctx.cancel = t.cancel
	ctx.abort = t.abort
	b := &w.compl
	var start time.Duration
	if b.timeValid {
		start = b.lastEnd
	} else {
		start = time.Since(rt.base)
	}
	// Invalidate while the task runs: a nested execute (Group.Wait
	// helping) must not start its measurement from a reading taken before
	// this task began.
	b.timeValid = false
	// Heartbeat for the watchdog: publish this task's start, restoring
	// the enclosing task's value afterward so a nested execute (helping
	// in Group.Wait) doesn't make the outer task look idle.
	var prevHB int64
	if rt.hbOn {
		prevHB = w.hb.v.Load()
		w.hb.v.Store(int64(start) + 1)
	}
	pv := rt.runGuarded(ctx, w, t)
	if rt.hbOn {
		w.hb.v.Store(prevHB)
	}
	end := time.Since(rt.base)
	d := end - start
	b.lastEnd, b.timeValid = end, true
	ctx.class = prev
	ctx.cancel = prevCancel
	ctx.abort = prevAbort
	if pv != nil {
		// The task panicked: the worker survives, the job is poisoned.
		// Everything below — timing, the workload observation, group and
		// outstanding accounting — proceeds exactly as for a returning
		// task, so a panic never desynchronizes Wait or Group.Wait.
		w.panics.Add(1)
		if rt.obs != nil {
			rt.obs.Panic(w.id, t.class)
		}
		if t.abort != nil {
			t.abort(pv)
		}
	}
	b.busy += int64(d)
	var stall time.Duration
	if !rt.cfg.DisableSpeedEmulation && w.rel < 1 {
		stall = time.Duration(float64(d) * (1/w.rel - 1))
		rt.sleepUnlessShutdown(stall)
		b.busy += int64(stall)
		b.timeValid = false
	}
	// Eq. 2: elapsed-on-core × rel = fastest-core seconds. With the
	// emulation stall the elapsed time is d/rel, so the normalized
	// workload is exactly d. The observation goes to the worker's own
	// shard recorder — owner-only, no lock — and is merged into the class
	// table at the next reorganization (or cold-path registry read).
	w.rec.Observe(t.class, d.Seconds(), 0)
	b.tasks++
	if rt.obs != nil {
		cl := rt.clusterOf(t.class)
		rt.obs.Complete(w.id, cl, t.class, d)
		if t.ledgerID != 0 {
			rt.obs.TaskEnd(t.ledgerID, w.id, cl, d.Nanoseconds(), int64(d+stall))
		}
	}
	if t.group != nil && t.group.pending.Add(-1) == 0 {
		// The group drained: wake workers parked in Group.Wait (sweep —
		// group waiters are not cluster-indexed).
		rt.wakeAll()
	}
	// Completion is batched: flush folds it into outstanding when the
	// worker next runs dry (the only moment Wait() could be satisfied).
	b.done++
	rt.retireTask(t)
}

// sleepUnlessShutdown sleeps in small slices so Shutdown stays prompt.
func (rt *Runtime) sleepUnlessShutdown(d time.Duration) {
	const slice = 2 * time.Millisecond
	for d > 0 && !rt.shutdown.Load() {
		s := d
		if s > slice {
			s = slice
		}
		time.Sleep(s)
		d -= s
	}
}

// haveWork reports whether any pool the worker may take from is
// non-empty — only the clusters in the worker's acquire order count, or a
// WATS-NP worker would spin on work it is never allowed to steal. Called
// from the parking slow path; the reads are racy point-checks, which the
// park protocol makes safe (see park.go).
func (rt *Runtime) haveWork(w *worker) bool {
	if !rt.inbox.empty() {
		return true
	}
	if rt.central {
		return false
	}
	for _, cl := range w.order {
		if rt.clusterWork[cl].v.Load() > 0 {
			return true
		}
	}
	return false
}

// nonEmptyPools counts pools (inbox included) still holding tasks.
// Quiescent only: with workers running the count is racy. Tests use it to
// assert drained pools.
func (rt *Runtime) nonEmptyPools() int {
	n := 0
	if !rt.inbox.empty() {
		n++
	}
	for _, w := range rt.table.Load().all {
		for _, p := range w.pools {
			if !p.Empty() {
				n++
			}
		}
	}
	return n
}

// helper periodically runs the strategy's reorganization step (the helper
// thread of §III-C). It is only started for strategies that have one, and
// exits promptly when Shutdown closes helperDone.
func (rt *Runtime) helper() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.HelperPeriod)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if rt.shutdown.Load() {
				return
			}
			if rt.obs != nil {
				t0 := time.Now()
				if rt.strat.Reorganize() {
					rt.obs.Repartition(time.Since(t0), rt.strat.Allocator().Map().Snapshot())
				}
			} else {
				rt.strat.Reorganize()
			}
		case <-rt.helperDone:
			return
		}
	}
}

// Wait blocks until every spawned task (including transitively spawned
// children) has completed.
func (rt *Runtime) Wait() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.outstanding.Load() != 0 {
		rt.cond.Wait()
	}
}

// Shutdown stops the workers. Pending tasks are abandoned; call Wait
// first for a clean drain. A Resize in flight when Shutdown is called
// completes first (its victims exit through the shutdown path).
func (rt *Runtime) Shutdown() {
	if rt.shutdown.Swap(true) {
		return
	}
	if rt.helperDone != nil {
		close(rt.helperDone)
	}
	if rt.watchdogDone != nil {
		close(rt.watchdogDone)
	}
	rt.wakeAll()
	rt.mu.Lock()
	rt.cond.Broadcast()
	rt.mu.Unlock()
	// Serialize against an in-flight Resize: its goroutine starts/awaits
	// are done once we hold the lock, so wg.Add never races wg.Wait.
	rt.resizeMu.Lock()
	rt.resizeMu.Unlock() //nolint:staticcheck // empty critical section is the point
	rt.wakeAll()
	rt.wg.Wait()
}

// Strategy exposes the scheduling strategy driving this runtime.
func (rt *Runtime) Strategy() sched.Strategy { return rt.strat }

// Tracer returns the attached observability tracer, or nil when tracing
// is disabled.
func (rt *Runtime) Tracer() *obs.Tracer { return rt.obs }

// HelperPeriod returns the helper-thread cadence the runtime was
// configured with (after defaulting). Capture headers record it so the
// twin replays the same reorganization rhythm.
func (rt *Runtime) HelperPeriod() time.Duration { return rt.cfg.HelperPeriod }

// SpeedEmulation reports whether the asymmetry emulation stalls are on.
// A capture taken without them is flagged in its header: the live run
// served at raw core speed, so a twin replay with per-group speeds will
// not match it.
func (rt *Runtime) SpeedEmulation() bool { return !rt.cfg.DisableSpeedEmulation }

// Registry exposes the learned task-class statistics.
func (rt *Runtime) Registry() *task.Registry { return rt.strat.Registry() }

// Allocator exposes the history-based allocator (non-nil for every policy
// kind; history-less kinds simply never reorganize it).
func (rt *Runtime) Allocator() *history.Allocator { return rt.strat.Allocator() }

// Arch returns the current architecture shape (republished by Resize).
func (rt *Runtime) Arch() *amc.Arch { return rt.arch.Load() }

// BaseArch returns the architecture the runtime was constructed with —
// the machine's native asymmetry ratio, which resize apportionment
// should follow even after the live shape has drifted from it.
func (rt *Runtime) BaseArch() *amc.Arch { return rt.cfg.Arch }

// Cancelled returns the total number of tasks dropped because their job
// context was done before they ran (summed over live and retired workers;
// racy point-read).
func (rt *Runtime) Cancelled() int64 {
	n := rt.retired.cancelled.Load()
	for _, w := range rt.table.Load().all {
		n += w.cancelled.Load()
	}
	return n
}

// Panics returns the total number of task panics recovered by the
// isolation layer (summed over live and retired workers; racy point-read).
func (rt *Runtime) Panics() int64 {
	n := rt.retired.panics.Load()
	for _, w := range rt.table.Load().all {
		n += w.panics.Load()
	}
	return n
}

// TasksRun returns the total number of tasks executed, including those
// run by workers since retired — the figure resize tests assert exact
// completion accounting against. Quiescent-exact (after Wait); racy while
// workers run (batched completions may lag by one flush).
func (rt *Runtime) TasksRun() int64 {
	n := rt.retired.tasksRun.Load()
	for _, w := range rt.table.Load().all {
		n += w.tasksRun.Load()
	}
	return n
}

// BusyNanos returns total busy time (emulation stalls included) across
// live and retired workers — the utilization numerator the scale
// controller consumes.
func (rt *Runtime) BusyNanos() int64 {
	n := rt.retired.busy.Load()
	for _, w := range rt.table.Load().all {
		n += w.busy.Load()
	}
	return n
}

// statsOf renders one worker's counter row.
func (rt *Runtime) statsOf(w *worker, retiring bool) WorkerStats {
	busy := w.busy.Load()
	return WorkerStats{
		Worker:        w.id,
		Group:         w.grp,
		Rel:           w.rel,
		Retiring:      retiring,
		TasksRun:      w.tasksRun.Load(),
		Steals:        w.steals.Load(),
		StealAttempts: w.stealAttempts.Load(),
		Cancelled:     w.cancelled.Load(),
		Panics:        w.panics.Load(),
		BusyNanos:     busy,
		EnergyJoules:  rt.energy.Power(w.freq) * float64(busy) / 1e9,
	}
}

// Stats returns a snapshot of per-worker counters for every live worker
// (retiring workers included, flagged). Counters of workers already
// retired are folded into the RetiredStats aggregate, so
// sum(Stats) + RetiredStats is exact across resizes.
func (rt *Runtime) Stats() []WorkerStats {
	tbl := rt.table.Load()
	active := make(map[*worker]bool, len(tbl.ws))
	for _, w := range tbl.ws {
		active[w] = true
	}
	out := make([]WorkerStats, 0, len(tbl.all))
	for _, w := range tbl.all {
		out = append(out, rt.statsOf(w, !active[w]))
	}
	return out
}
