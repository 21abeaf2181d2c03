package sched

import (
	"wats/internal/sim"
	"wats/internal/task"
)

// simAdapter runs a Strategy on the discrete-event engine: it owns the
// (core × cluster) pool matrix and expresses spawn routing, the Algorithm 3
// acquisition walk and snatching purely in terms of the strategy's axes.
// It is the simulator-side counterpart of the live runtime's worker loop —
// both consume the same Strategy, so policy logic exists exactly once.
type simAdapter struct {
	s     Strategy
	e     *sim.Engine
	pools *sim.PoolSet
	// rec is the strategy's shard-0 recorder: the simulator's
	// single-threaded event loop plays the role of worker 0 on the
	// statistics hot path, so both engines share one record-then-merge
	// code path.
	rec Recorder
	// victims is snatchRandom's candidate buffer, sized for every core.
	victims []*sim.Core
}

func (a *simAdapter) init(e *sim.Engine) {
	a.e = e
	a.s.Bind(e.Arch)
	a.pools = sim.NewPoolSet(e, a.s.Clusters())
	a.rec = a.s.Recorder(0)
	a.victims = make([]*sim.Core, 0, len(e.Cores()))
}

// inject routes an externally created task: the central queue for the
// sharing baseline, the origin core's pool for the task's cluster
// otherwise.
func (a *simAdapter) inject(origin *sim.Core, t *task.Task) {
	if a.s.Central() {
		a.pools.Push(0, 0, t)
		return
	}
	a.pools.Push(origin.ID, a.s.ClusterOf(t.Class), t)
}

// enqueue routes a task spawned by core c, reporting the spawn edge to the
// strategy first (divide-and-conquer detection may change the routing of
// this very task).
func (a *simAdapter) enqueue(c *sim.Core, t *task.Task) {
	if t.Parent != nil {
		a.s.NoteSpawn(t.Parent.Class, t.Class)
	}
	if a.s.Central() {
		a.pools.Push(0, 0, t)
		return
	}
	a.pools.Push(c.ID, a.s.ClusterOf(t.Class), t)
}

// acquire implements the acquisition axis once for every policy: walk the
// strategy's cluster order — local pop, then random steal per cluster —
// and fall back to the strategy's snatch mode when the walk found nothing.
func (a *simAdapter) acquire(c *sim.Core) (*task.Task, float64) {
	if a.s.Central() {
		// FIFO from the shared queue; every acquire pays the central lock.
		if t := a.pools.StealTop(0, 0); t != nil {
			return t, a.e.Cfg.StealCost
		}
		return nil, 0
	}
	for _, cl := range a.s.AcquireOrder(c.Group) {
		if t := a.pools.PopBottom(c.ID, cl); t != nil {
			c.LocalPops++
			return t, 0
		}
		if t := a.pools.StealRandom(c, cl); t != nil {
			c.Steals++
			return t, a.e.Cfg.StealCost
		}
	}
	var t *task.Task
	switch a.s.SnatchMode() {
	case SnatchRandom:
		t = a.snatchRandom(c)
	case SnatchLargest:
		t = a.snatchLargest(c)
	}
	if t != nil {
		c.Snatches++
		return t, a.e.Cfg.SnatchCost
	}
	return nil, 0
}

// snatchRandom preempts the running task of a uniformly random busy core
// belonging to a strictly slower c-group than the thief's (RTS).
func (a *simAdapter) snatchRandom(thief *sim.Core) *task.Task {
	victims := a.victims[:0]
	for _, v := range a.e.Cores() {
		if v.Group > thief.Group && v.Running() != nil {
			victims = append(victims, v)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	v := victims[thief.Rng.Intn(len(victims))]
	return a.e.Preempt(v, thief)
}

// snatchLargest implements workload-aware snatching (WATS-TS): among busy
// cores of strictly slower c-groups, preempt the one whose running task
// has the largest estimated remaining workload (class average from the
// history, minus observed progress).
func (a *simAdapter) snatchLargest(thief *sim.Core) *task.Task {
	var best *sim.Core
	bestRem := -1.0
	for _, v := range a.e.Cores() {
		if v.Group <= thief.Group {
			continue
		}
		run := v.Running()
		if run == nil {
			continue
		}
		rem := a.e.EstimatedRemaining(v, a.s.EstimateWork(run.Class))
		if rem > bestRem {
			bestRem = rem
			best = v
		}
	}
	if best == nil {
		return nil
	}
	return a.e.Preempt(best, thief)
}

func (a *simAdapter) onComplete(t *task.Task) {
	a.rec.Observe(t.Class, t.Measured, t.CMPI)
}

// repartitionTracer is the optional sim.Tracer extension that receives
// helper-tick cluster-map rebuilds (trace.Recorder implements it).
type repartitionTracer interface {
	Repartition(at float64, classes map[string]int)
}

func (a *simAdapter) onHelperTick() {
	if !a.s.Reorganizes() {
		return
	}
	if !a.s.Reorganize() {
		return
	}
	if rt, ok := a.e.Cfg.Tracer.(repartitionTracer); ok {
		rt.Repartition(a.e.Now(), a.s.Allocator().Map().Snapshot())
	}
}

// simPolicy is the public face of a strategy on the simulator: a thin
// sim.Policy whose every method delegates to the shared adapter.
type simPolicy struct {
	simAdapter
}

// newSimPolicy wraps an unbound strategy into a sim.Policy.
func newSimPolicy(s Strategy) *simPolicy { return &simPolicy{simAdapter{s: s}} }

func (p *simPolicy) Name() string                              { return string(p.s.Kind()) }
func (p *simPolicy) ChildFirst() bool                          { return p.s.ChildFirst() }
func (p *simPolicy) Init(e *sim.Engine)                        { p.init(e) }
func (p *simPolicy) Inject(origin *sim.Core, t *task.Task)     { p.inject(origin, t) }
func (p *simPolicy) Enqueue(c *sim.Core, t *task.Task)         { p.enqueue(c, t) }
func (p *simPolicy) Acquire(c *sim.Core) (*task.Task, float64) { return p.acquire(c) }
func (p *simPolicy) OnComplete(c *sim.Core, t *task.Task)      { p.onComplete(t) }
func (p *simPolicy) OnHelperTick(e *sim.Engine)                { p.onHelperTick() }
