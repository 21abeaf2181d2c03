// Package sim is a deterministic discrete-event simulator of task
// scheduling on Asymmetric Multi-Core (AMC) architectures.
//
// The simulator stands in for the paper's testbed — a 16-core AMD Opteron
// 8380 whose per-core DVFS settings emulate the seven AMC architectures of
// Table II. Scheduling logic (per-core deques, random and preference-based
// stealing, task snatching, the history-based allocator's helper thread)
// executes exactly as specified by the paper; only the consumption of CPU
// cycles is virtualized: a core of relative speed Rel executes w units of
// fastest-core work in w/Rel units of virtual time.
//
// Workload ground truth (task.Task.Work) is invisible to policies; they
// observe only Eq.2-normalized measurements of completed tasks, as the
// real system would through performance counters.
package sim

import (
	"fmt"
	"math"

	"wats/internal/amc"
	"wats/internal/rng"
	"wats/internal/task"
)

// Config holds the engine's cost model and tunables. Zero values are
// replaced by defaults documented on each field.
type Config struct {
	// Seed seeds all random streams. Two runs with equal Config, Policy
	// and Workload produce identical traces.
	Seed uint64
	// StealCost is the virtual time a successful steal costs the thief
	// (lock + deque transfer). Default 2e-6 (2 µs).
	StealCost float64
	// SpawnCost is charged when a task spawns a child. Default 1e-7.
	SpawnCost float64
	// SnatchCost is Δs of §II-A: the fixed cost of a snatch — swapping the
	// two OS threads between cores (it is charged to the thief, and the
	// victim restarts after the same delay). Default 15e-3 (15 ms).
	SnatchCost float64
	// SnatchReworkFrac models the cold-cache restart of a migrated task:
	// the snatched task loses this fraction of its completed work (its
	// working set must be rebuilt on the thief core, and the larger the
	// progress, the larger the footprint). This is what makes snatching
	// profitable for rescuing catastrophic strandings (RTS on badly
	// random-allocated heavy tasks) yet a net loss when workloads are
	// already balanced (the paper’s Fig. 10 finding that WATS-TS is
	// slightly worse than WATS). Default 0.15; set negative for 0.
	SnatchReworkFrac float64
	// HelperPeriod is the helper-thread tick interval (§III-C: "e.g.,
	// every 1ms"). Default 1e-3.
	HelperPeriod float64
	// MaxVirtualTime aborts runaway simulations. Default 1e7 seconds.
	MaxVirtualTime float64
	// MeasureInline, when true (the default unless DisableInline is set),
	// charges segments executed on a core to the suspended child-first
	// parents stacked on that core, reproducing the parent-workload
	// mis-measurement of §III-C.
	DisableInlineMeasurement bool
	// CollectTasks retains every completed task in the result for
	// detailed post-analysis (costs memory on large runs).
	CollectTasks bool
	// Tracer, if non-nil, receives segment/steal/snatch/completion
	// events (see package trace for a recorder).
	Tracer Tracer
	// DVFS schedules core-speed changes during the run (thermal
	// throttling, frequency scaling). A change mid-task re-times the
	// task's remaining work at the new speed; completed progress is
	// preserved. Note that Result.LowerBound is computed from the
	// *initial* speeds and is no longer a true bound when speeds rise.
	DVFS []SpeedEvent
}

// SpeedEvent is one scheduled DVFS transition: at virtual time At, core
// Core's frequency becomes Freq (same unit as the architecture's; the
// relative speed is recomputed against the original fastest frequency).
type SpeedEvent struct {
	At   float64
	Core int
	Freq float64
}

func (c Config) withDefaults() Config {
	if c.StealCost == 0 {
		c.StealCost = 2e-6
	}
	if c.SpawnCost == 0 {
		c.SpawnCost = 1e-7
	}
	if c.SnatchCost == 0 {
		c.SnatchCost = 15e-3
	}
	if c.SnatchReworkFrac == 0 {
		c.SnatchReworkFrac = 0.15
	}
	if c.SnatchReworkFrac < 0 {
		c.SnatchReworkFrac = 0
	}
	if c.HelperPeriod == 0 {
		c.HelperPeriod = 1e-3
	}
	if c.MaxVirtualTime == 0 {
		c.MaxVirtualTime = 1e7
	}
	return c
}

// Policy is a task-scheduling policy plugged into the engine. Policies own
// the task pools; the engine owns cores, virtual time and task execution.
// All methods are called from the single-threaded event loop.
type Policy interface {
	// Name identifies the policy in reports ("Cilk", "WATS", ...).
	Name() string
	// ChildFirst selects the spawn discipline: true for work-first (MIT
	// Cilk), false for parent-first (PFT, WATS).
	ChildFirst() bool
	// Init is called once before the run starts.
	Init(e *Engine)
	// Inject routes an externally created task (main-task spawn or
	// pipeline successor) into a pool. origin is the core on whose behalf
	// the injection happens (the fastest core for the main task).
	Inject(origin *Core, t *task.Task)
	// Enqueue routes a task spawned by core c: a child under parent-first,
	// or a suspended parent continuation under child-first.
	Enqueue(c *Core, t *task.Task)
	// Acquire obtains the next task for an idle core, implementing the
	// policy's local-pop/steal/snatch logic. It returns the task (nil if
	// none found anywhere) and the virtual-time overhead spent obtaining
	// it (steal or snatch cost; 0 for a local pop).
	Acquire(c *Core) (t *task.Task, overhead float64)
	// OnComplete is called when a task finishes on core c (history
	// updates for WATS).
	OnComplete(c *Core, t *task.Task)
	// OnHelperTick is the periodic helper-thread body (§III-C): WATS
	// reorganizes task clusters here.
	OnHelperTick(e *Engine)
}

// Workload drives task creation. Start is called once at virtual time 0;
// OnQuiescent is called whenever every injected task has completed, and
// reports whether it injected more work (false ends the run). Pipeline
// workloads may additionally inject from task OnComplete hooks at any time.
type Workload interface {
	Name() string
	Start(e *Engine)
	OnQuiescent(e *Engine) bool
}

// Engine is the discrete-event simulation engine.
type Engine struct {
	Arch   *amc.Arch
	Policy Policy
	Cfg    Config
	Rng    *rng.Source

	cores []*Core
	now   float64
	seq   int64
	ev    eventHeap

	outstanding int     // injected + spawned tasks not yet completed
	lastDone    float64 // completion time of the most recent task
	nextTaskID  int
	injectCore  *Core // core on whose behalf OnComplete hooks inject

	workload Workload
	finished bool
	// mainQ holds injected Main tasks; only the fastest core (core 0)
	// executes them, per §IV-E.
	mainQ []*task.Task
	// arrivals holds tasks pre-registered by InjectAt for future
	// injection (open-loop trace replay); pendingArrivals counts the ones
	// whose evArrival has not fired yet, keeping the run alive while the
	// system is drained between arrivals.
	arrivals        []*task.Task
	pendingArrivals int

	// --- run statistics ---
	tasksDone   int
	totalWork   float64 // ground-truth work of completed tasks (F1 units)
	classTruth  map[string]*truth
	completed   []*task.Task
	helperTicks int
	quiescents  []float64 // times the system fully drained (batch ends)
}

type truth struct {
	n   int
	sum float64
}

// New builds an engine for the given architecture, policy and config.
func New(a *amc.Arch, p Policy, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		Arch:       a,
		Policy:     p,
		Cfg:        cfg,
		Rng:        rng.New(cfg.Seed),
		classTruth: map[string]*truth{},
		// A core has at most one live segment end and one dispatch
		// queued, plus the stale ends preemptions leave behind; replays
		// that schedule every arrival up front grow past this.
		ev: make(eventHeap, 0, 4*a.NumCores()),
	}
	f1 := a.FastestFreq()
	for c := 0; c < a.NumCores(); c++ {
		e.cores = append(e.cores, &Core{
			ID:    c,
			Group: a.GroupOf(c),
			Rel:   a.Speed(c) / f1,
			Rng:   e.Rng.Split(),
			idle:  true,
		})
	}
	return e
}

// Cores exposes the simulated cores to policies.
func (e *Engine) Cores() []*Core { return e.cores }

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

func (e *Engine) schedule(at float64, kind eventKind, core int, token int64) {
	e.seq++
	e.ev.push(event{at: at, seq: e.seq, kind: kind, core: int32(core), token: token})
}

// Inject introduces an externally created task at the current virtual
// time. During task OnComplete hooks the injection is attributed to the
// completing core; otherwise to the fastest core (the paper schedules the
// main task on the fastest core, §IV-E).
func (e *Engine) Inject(t *task.Task) {
	origin := e.injectCore
	if origin == nil {
		origin = e.cores[0]
	}
	e.prepare(t, nil, 0)
	if t.Main {
		// The main task bypasses the policy's pools: it runs on the
		// fastest core, for every scheduler alike (§IV-E).
		e.mainQ = append(e.mainQ, t)
		c0 := e.cores[0]
		if c0.idle {
			c0.idle = false
			e.schedule(e.now, evDispatch, 0, 0)
		}
		return
	}
	e.Policy.Inject(origin, t)
	e.WakeIdle()
}

// InjectAt schedules t for injection at virtual time at (clamped to the
// current time when in the past) — the open-loop arrival primitive for
// trace replay. Unlike a Main root task fanning children out, arrivals
// occupy no core until their time comes, so the simulated machine idles
// between arrivals exactly like the live service did. Call it from
// Workload.Start (or any point before the run finishes); the engine
// keeps running while arrivals are pending even when fully drained.
func (e *Engine) InjectAt(at float64, t *task.Task) {
	if at < e.now {
		at = e.now
	}
	e.arrivals = append(e.arrivals, t)
	e.pendingArrivals++
	e.schedule(at, evArrival, 0, int64(len(e.arrivals)-1))
}

// PendingArrivals returns the number of InjectAt arrivals not yet
// injected.
func (e *Engine) PendingArrivals() int { return e.pendingArrivals }

// prepare assigns IDs and initial state to a task (not its spawn-tree
// descendants; those are prepared when their spawn point fires).
func (e *Engine) prepare(t *task.Task, parent *task.Task, depth int) {
	e.nextTaskID++
	t.ID = e.nextTaskID
	t.State = task.Queued
	t.StartT = -1
	t.Parent = parent
	t.Depth = depth
	t.SortSpawns()
	e.outstanding++
}

// WakeIdle re-dispatches every parked core at the current time. Policies
// call it if they move work around outside the engine's spawn path.
func (e *Engine) WakeIdle() {
	for _, c := range e.cores {
		if c.idle {
			c.idle = false
			e.schedule(e.now, evDispatch, c.ID, 0)
		}
	}
}

// execRate returns the work-per-virtual-time rate of task t on core c:
// CPU work scales with the core's relative speed, the task's memory-stall
// fraction does not (§IV-E extension; MemFrac=0 gives the plain c.Rel).
func execRate(c *Core, t *task.Task) float64 {
	mf := t.MemFrac
	if mf <= 0 {
		return c.Rel
	}
	if mf > 1 {
		mf = 1
	}
	return 1 / ((1-mf)/c.Rel + mf)
}

// startTask begins (or resumes) execution of t on core c after the given
// overhead delay. It schedules the segment-end event for the stretch up to
// the next spawn point or task end.
func (e *Engine) startTask(c *Core, t *task.Task, delay float64) {
	c.idle = false
	c.cur = t
	c.Overhead += delay
	t.State = task.Running
	t.LastCore = c.ID
	if t.StartT < 0 {
		t.StartT = e.now
	}
	c.removeInline(t) // resuming an inline-suspended continuation
	seg := t.NextStop() - t.Done_
	if seg < 0 {
		seg = 0
	}
	c.segWork = seg
	c.segStart = e.now + delay
	c.token++
	e.schedule(e.now+delay+seg/execRate(c, t), evSegEnd, c.ID, c.token)
}

// chargeSegment accounts an executed stretch of segWork own-work units on
// core c to the running task and to any child-first parents suspended
// inline on the core. The charged measurement is what a reference-cycle
// performance counter would see after Eq. 2 normalization: elapsed time ×
// Fi/F1. For pure CPU-bound tasks that equals segWork exactly; for
// memory-bound tasks it is distorted by where the task ran — a realistic
// property of counter-based measurement the memory-aware variant must
// tolerate.
func (e *Engine) chargeSegment(c *Core, t *task.Task, segWork, segTime float64) {
	c.Busy += segTime
	if e.Cfg.Tracer != nil && segTime > 0 {
		e.Cfg.Tracer.Segment(c.ID, t.ID, t.Class, e.now-segTime, e.now)
	}
	measured := segTime * c.Rel
	t.Measured += measured
	if !e.Cfg.DisableInlineMeasurement {
		for _, p := range c.inline {
			if p != t {
				p.Measured += measured
			}
		}
	}
}

// Preempt stops the task currently running on victim core v, charging the
// partially executed segment, and returns the task so the thief (a faster
// core) can finish it (the snatch operation of RTS and WATS-TS). The
// victim is re-dispatched after the snatch cost. Returns nil if v runs
// nothing.
func (e *Engine) Preempt(v *Core, thief *Core) *task.Task {
	t := v.cur
	if t == nil {
		return nil
	}
	if e.Cfg.Tracer != nil {
		e.Cfg.Tracer.Snatch(thief.ID, v.ID, t.ID, e.now)
	}
	elapsed := e.now - v.segStart
	if elapsed < 0 {
		elapsed = 0
	}
	rate := execRate(v, t)
	workDone := elapsed * rate
	if workDone > v.segWork {
		workDone = v.segWork
	}
	e.chargeSegment(v, t, workDone, math.Min(elapsed, v.segWork/rate))
	t.Done_ += workDone
	// Cold-cache restart: the migrated task redoes part of its work on
	// the thief core (its working set does not travel with the thread).
	t.Done_ -= e.Cfg.SnatchReworkFrac * t.Done_
	if t.Done_ < 0 {
		t.Done_ = 0
	}
	t.State = task.Suspended
	v.cur = nil
	v.token++ // invalidate the pending evSegEnd
	v.SnatchedFrom++
	v.idle = false
	e.schedule(e.now+e.Cfg.SnatchCost, evDispatch, v.ID, 0)
	return t
}

// EstimatedRemaining returns a policy-visible estimate of the remaining
// normalized work of the task running on core v, using the class average
// estimate est (pass <0 if the class is unknown). Policies use it for
// workload-aware snatching (WATS-TS).
func (e *Engine) EstimatedRemaining(v *Core, est float64) float64 {
	t := v.cur
	if t == nil {
		return 0
	}
	elapsed := e.now - v.segStart
	if elapsed < 0 {
		elapsed = 0
	}
	doneNorm := t.Done_ + elapsed*execRate(v, t)
	if est < 0 {
		// Unknown class: all we know is it has run for doneNorm already.
		return doneNorm
	}
	r := est - doneNorm
	if r < 0 {
		r = 0
	}
	return r
}

// Run executes the workload to completion and returns the result.
func (e *Engine) Run(w Workload) (*Result, error) {
	e.workload = w
	e.Policy.Init(e)
	w.Start(e)
	if e.outstanding == 0 && e.pendingArrivals == 0 {
		return nil, fmt.Errorf("sim: workload %q injected no tasks", w.Name())
	}
	for _, c := range e.cores {
		c.idle = false
		e.schedule(0, evDispatch, c.ID, 0)
	}
	e.schedule(e.Cfg.HelperPeriod, evHelper, 0, 0)
	for i, sp := range e.Cfg.DVFS {
		if sp.Core < 0 || sp.Core >= len(e.cores) || sp.At < 0 || sp.Freq <= 0 {
			return nil, fmt.Errorf("sim: invalid DVFS event %d: %+v", i, sp)
		}
		// The event index rides in the token field.
		e.schedule(sp.At, evSpeed, sp.Core, int64(i))
	}

	for e.ev.Len() > 0 && !e.finished {
		ev := e.ev.pop()
		if ev.at < e.now {
			return nil, fmt.Errorf("sim: time went backwards (%g < %g)", ev.at, e.now)
		}
		e.now = ev.at
		if e.now > e.Cfg.MaxVirtualTime {
			return nil, fmt.Errorf("sim: exceeded MaxVirtualTime=%g with %d tasks outstanding (policy %s, workload %s)",
				e.Cfg.MaxVirtualTime, e.outstanding, e.Policy.Name(), w.Name())
		}
		switch ev.kind {
		case evDispatch:
			e.handleDispatch(e.cores[ev.core])
		case evSegEnd:
			c := e.cores[ev.core]
			if ev.token != c.token || c.cur == nil {
				break // stale: the task was preempted
			}
			e.handleSegEnd(c)
		case evHelper:
			e.helperTicks++
			e.Policy.OnHelperTick(e)
			e.schedule(e.now+e.Cfg.HelperPeriod, evHelper, 0, 0)
		case evArrival:
			e.pendingArrivals--
			e.Inject(e.arrivals[ev.token])
		case evSpeed:
			e.applySpeed(e.Cfg.DVFS[ev.token])
		}
	}
	return e.result(), nil
}

func (e *Engine) handleDispatch(c *Core) {
	if c.cur != nil {
		return // already running (stale wakeup)
	}
	if c.ID == 0 && len(e.mainQ) > 0 {
		t := e.mainQ[0]
		e.mainQ[0] = nil // the backing array outlives the run of the task
		e.mainQ = e.mainQ[1:]
		e.startTask(c, t, 0)
		return
	}
	t, overhead := e.Policy.Acquire(c)
	if t == nil {
		c.FailedAcquires++
		c.idle = true
		return
	}
	e.startTask(c, t, overhead) // charges the overhead as its start delay
}

func (e *Engine) handleSegEnd(c *Core) {
	t := c.cur
	segTime := c.segWork / execRate(c, t)
	e.chargeSegment(c, t, c.segWork, segTime)
	t.Done_ = t.NextStop()

	// Spawn point?
	if t.NextSpawn < len(t.Spawns) && t.Done_ >= t.Spawns[t.NextSpawn].At {
		child := t.Spawns[t.NextSpawn].Child
		t.NextSpawn++
		e.prepare(child, t, t.Depth+1)
		if e.Policy.ChildFirst() {
			// Work-first (MIT Cilk): suspend the parent, expose its
			// continuation for stealing, run the child immediately.
			t.State = task.Suspended
			c.cur = nil
			c.inline = append(c.inline, t)
			e.Policy.Enqueue(c, t)
			e.WakeIdle()
			e.startTask(c, child, e.Cfg.SpawnCost)
		} else {
			// Parent-first: queue the child, keep running the parent.
			child.State = task.Queued
			e.Policy.Enqueue(c, child)
			e.WakeIdle()
			e.startTask(c, t, e.Cfg.SpawnCost)
		}
		return
	}

	// Task complete.
	t.State = task.Done
	t.EndT = e.now
	if e.Cfg.Tracer != nil {
		e.Cfg.Tracer.Complete(c.ID, t.ID, t.Class, e.now)
	}
	c.cur = nil
	c.TasksRun++
	e.tasksDone++
	e.totalWork += t.Work
	e.lastDone = e.now
	tr := e.classTruth[t.Class]
	if tr == nil {
		tr = &truth{}
		e.classTruth[t.Class] = tr
	}
	tr.n++
	tr.sum += t.Work
	if e.Cfg.CollectTasks {
		e.completed = append(e.completed, t)
	}
	e.Policy.OnComplete(c, t)
	if t.OnComplete != nil {
		e.injectCore = c
		t.OnComplete(t)
		e.injectCore = nil
	}
	e.outstanding--
	if e.outstanding == 0 {
		e.quiescents = append(e.quiescents, e.now)
		e.injectCore = c
		more := e.workload.OnQuiescent(e)
		e.injectCore = nil
		if !more && e.outstanding == 0 && e.pendingArrivals == 0 {
			e.finished = true
			return
		}
	}
	// The core immediately looks for its next task.
	e.schedule(e.now, evDispatch, c.ID, 0)
}

// applySpeed performs a DVFS transition: if the core is mid-task, the
// progress so far is charged at the old speed and the remainder re-timed
// at the new one (frequency switches are treated as instantaneous; add a
// cost by scheduling idle time in the workload if needed).
func (e *Engine) applySpeed(sp SpeedEvent) {
	c := e.cores[sp.Core]
	newRel := sp.Freq / e.Arch.FastestFreq()
	if c.cur == nil {
		c.Rel = newRel
		return
	}
	t := c.cur
	elapsed := e.now - c.segStart
	if elapsed < 0 {
		// Segment not started yet (overhead delay pending): just switch.
		c.Rel = newRel
		c.token++
		e.startTask(c, t, c.segStart-e.now)
		return
	}
	rate := execRate(c, t)
	workDone := elapsed * rate
	if workDone > c.segWork {
		workDone = c.segWork
	}
	e.chargeSegment(c, t, workDone, elapsed)
	t.Done_ += workDone
	c.Rel = newRel
	c.token++ // invalidate the old segment-end event
	c.cur = nil
	e.startTask(c, t, 0)
}

// NoteDequeued informs the engine that task t left core owner's pools
// (popped locally or stolen). The engine uses it to maintain the inline
// measurement stacks of the child-first discipline.
func (e *Engine) NoteDequeued(owner *Core, t *task.Task) {
	owner.removeInline(t)
}
