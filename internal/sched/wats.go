package sched

import (
	"sync/atomic"

	"wats/internal/amc"
	"wats/internal/history"
	"wats/internal/sim"
	"wats/internal/task"
)

// WATS is the Workload-Aware Task Scheduling strategy of the paper:
//
//   - parent-first spawning (so completed-task cycle counts measure a
//     task's own work, §III-C);
//   - history-based task allocation: completed tasks update class records
//     TC(f, n, w) via Algorithm 2; a helper tick re-partitions classes
//     into task clusters via Algorithm 1 (§III-A);
//   - per-core, per-cluster task pools with preference-based stealing
//     following the "rob the weaker first" lists of Fig. 4 (§III-B).
//
// It implements both the engine-agnostic Strategy interface (consumed by
// the live runtime of internal/runtime) and sim.Policy (via the shared sim
// adapter), so one instance of the policy logic serves both engines.
//
// Variants (all ablations from the paper's evaluation):
//
//   - NoPreference (WATS-NP): idle cores only take tasks of their own
//     cluster (§IV-C).
//   - Snatch (WATS-TS): if preference stealing finds nothing, preempt the
//     slower core holding the largest estimated remaining task (§IV-D).
//   - ChildFirstSpawn: run WATS with the child-first discipline to expose
//     the workload mis-measurement that motivates parent-first (extra
//     ablation, not a paper figure).
type WATS struct {
	// NoPreference restricts stealing to the core's own cluster (WATS-NP).
	NoPreference bool
	// Snatch enables workload-aware task snatching (WATS-TS).
	Snatch bool
	// ChildFirstSpawn switches to child-first spawning (measurement
	//-corruption ablation; the real WATS always uses parent-first).
	ChildFirstSpawn bool
	// LiteralPartition uses the verbatim Algorithm 1 greedy instead of
	// the default anchored cut rule (partition-rule ablation; see
	// history.Partition vs history.PartitionAnchored).
	LiteralPartition bool
	// ReorgEveryCompletion rebuilds clusters on every task completion in
	// addition to helper ticks (the paper reorganizes "once a task is
	// completed"; the default here is helper-tick-only, which matches the
	// 1 ms helper cadence and is indistinguishable in results).
	ReorgEveryCompletion bool
	// MemAware enables the §IV-E extension: classes whose average CMPI
	// exceeds CMPIThreshold are allocated to the slowest c-group ("there
	// will be no performance gain for memory-bound tasks to run on fast
	// cores"), freeing fast cores for CPU-bound classes.
	MemAware bool
	// CMPIThreshold is the memory-boundedness cutoff (default 0.05).
	CMPIThreshold float64
	// DetectRecursion enables the §IV-E divide-and-conquer fallback: if a
	// task ever spawns a child of its own class, the program is assumed
	// to be divide-and-conquer and WATS reverts to plain random stealing
	// (all classes routed to the fastest cluster's pools). The paper does
	// this detection in the cilk2c compiler; here it happens at the first
	// self-recursive spawn.
	DetectRecursion bool
	// FreezeAfterReorgs, when positive, stops cluster reorganization after
	// that many rebuilds (the "stale history" ablation for phase-change
	// experiments).
	FreezeAfterReorgs int
	// EWMAAlpha, when positive, replaces Algorithm 2's cumulative mean
	// with an exponential moving average (extension; adapts faster to
	// phase changes).
	EWMAAlpha float64

	recursionDetected atomic.Bool

	label string

	arch  *amc.Arch
	reg   *task.Registry
	alloc *history.Allocator
	prefs [][]int
	// recs are the per-worker completion sinks handed out by Recorder
	// (plain shard recorders, or reorgRecorder wrappers under the
	// reorganize-every-completion ablation).
	recs []Recorder

	sim simAdapter
}

// reorgRecorder decorates a shard recorder with the ReorgEveryCompletion
// ablation: every completion additionally re-runs Algorithm 1 (the
// allocator serializes concurrent rebuilds).
type reorgRecorder struct {
	rec *task.Recorder
	p   *WATS
}

func (r *reorgRecorder) Observe(class string, measured, cmpi float64) {
	r.rec.Observe(class, measured, cmpi)
	r.p.alloc.Reorganize()
}

// NewWATS returns the full WATS policy.
func NewWATS() *WATS { return &WATS{label: string(KindWATS)} }

// NewWATSNP returns WATS without cross-cluster stealing (§IV-C).
func NewWATSNP() *WATS { return &WATS{label: string(KindWATSNP), NoPreference: true} }

// NewWATSTS returns WATS with workload-aware task snatching (§IV-D).
func NewWATSTS() *WATS { return &WATS{label: string(KindWATSTS), Snatch: true} }

// NewWATSMem returns the memory-aware WATS extension of §IV-E: CPU-bound
// classes are allocated as usual, memory-bound classes (per their CMPI
// counters) go to the slowest c-group.
func NewWATSMem() *WATS { return &WATS{label: string(KindWATSMem), MemAware: true} }

// Name implements sim.Policy.
func (p *WATS) Name() string {
	if p.label != "" {
		return p.label
	}
	return string(KindWATS)
}

// SetName overrides the report label (used by ablation harnesses).
func (p *WATS) SetName(s string) { p.label = s }

// Kind implements Strategy (the report label, which the constructors set
// to the policy kind).
func (p *WATS) Kind() Kind { return Kind(p.Name()) }

// ChildFirst implements Strategy and sim.Policy.
func (p *WATS) ChildFirst() bool { return p.ChildFirstSpawn }

// Bind implements Strategy: fix the architecture and allocate the per-run
// history state. The sim adapter calls it from Init; the live runtime
// calls it at construction.
func (p *WATS) Bind(arch *amc.Arch) {
	if p.arch != nil {
		panic("sched: WATS strategy is single-use; Bind called twice")
	}
	p.arch = arch
	p.reg = task.NewSharded(arch.NumCores())
	if p.EWMAAlpha > 0 {
		p.reg.SetEWMA(p.EWMAAlpha)
	}
	p.alloc = history.NewAllocator(p.reg, arch)
	if p.LiteralPartition {
		p.alloc.UseLiteralPartition()
	}
	p.prefs = history.PreferenceTable(arch.K())
	p.recs = make([]Recorder, arch.NumCores())
	for w := range p.recs {
		if p.ReorgEveryCompletion {
			p.recs[w] = &reorgRecorder{rec: p.reg.Recorder(w), p: p}
		} else {
			p.recs[w] = p.reg.Recorder(w)
		}
	}
}

// Clusters implements Strategy: one task cluster per c-group (§III-A).
func (p *WATS) Clusters() int { return p.arch.K() }

// Central implements Strategy.
func (p *WATS) Central() bool { return false }

// Registry exposes the class statistics (Strategy interface).
func (p *WATS) Registry() *task.Registry { return p.reg }

// Allocator exposes the history allocator for inspection in tests.
func (p *WATS) Allocator() *history.Allocator { return p.alloc }

// ClusterOf routes a class through the current cluster map; unknown
// classes go to cluster 0 (fastest c-group), per §III-A. Under MemAware,
// known memory-bound classes go to the slowest c-group instead (§IV-E).
func (p *WATS) ClusterOf(class string) int {
	if p.recursionDetected.Load() {
		return 0 // divide-and-conquer fallback: plain random stealing
	}
	if p.MemAware {
		th := p.CMPIThreshold
		if th == 0 {
			th = 0.05
		}
		if cl, ok := p.reg.Lookup(class); ok && cl.AvgCMPI > th {
			return p.arch.K() - 1
		}
	}
	return p.alloc.ClusterOf(class)
}

// ExplainAllocation implements Explainer: ClusterOf with the rule that
// fired and the class's TC(f, n, w) record at decision time. The branch
// order mirrors ClusterOf exactly — recursion fallback, then CMPI
// routing, then the published partition — so the explained cluster is the
// one a concurrent ClusterOf call would return (modulo a repartition
// racing in between, which moves both the same way).
func (p *WATS) ExplainAllocation(class string) AllocationDecision {
	d := AllocationDecision{EstWork: -1}
	if p.reg == nil { // not yet bound to an engine
		d.Rule = RuleDefaultFastest
		return d
	}
	cl, known := p.reg.Lookup(class)
	if known {
		d.EstWork, d.EstCount = cl.AvgWork, int64(cl.Count)
	}
	if p.recursionDetected.Load() {
		d.Rule = RuleRecursion
		return d // cluster 0: plain random stealing
	}
	if p.MemAware {
		th := p.CMPIThreshold
		if th == 0 {
			th = 0.05
		}
		if known && cl.AvgCMPI > th {
			d.Cluster, d.Rule = p.arch.K()-1, RuleMemBound
			return d
		}
	}
	d.Cluster = p.alloc.ClusterOf(class)
	if known {
		d.Rule = RuleHistory
	} else {
		d.Rule = RuleDefaultFastest
	}
	return d
}

// AcquireOrder implements Algorithm 3's cluster walk: the c-group's "rob
// the weaker first" preference list (Fig. 4), truncated to the own cluster
// under NoPreference (WATS-NP).
func (p *WATS) AcquireOrder(group int) []int {
	if group < 0 {
		group = 0
	}
	if group >= len(p.prefs) {
		group = len(p.prefs) - 1
	}
	if p.NoPreference {
		return p.prefs[group][:1]
	}
	return p.prefs[group]
}

// SnatchMode implements Strategy: workload-aware snatching when the
// WATS-TS knob is on.
func (p *WATS) SnatchMode() SnatchMode {
	if p.Snatch {
		return SnatchLargest
	}
	return SnatchNone
}

// EstimateWork returns the class's average normalized workload from the
// history, or -1 when the class is unknown (snatch victim ranking).
func (p *WATS) EstimateWork(class string) float64 {
	if cl, ok := p.reg.Lookup(class); ok {
		return cl.AvgWork
	}
	return -1
}

// NoteSpawn feeds the divide-and-conquer detector: a task spawning a child
// of its own class flips the runtime into the random-stealing fallback.
func (p *WATS) NoteSpawn(parentClass, childClass string) {
	if p.DetectRecursion && parentClass == childClass && !p.recursionDetected.Load() {
		p.recursionDetected.Store(true)
	}
}

// Observe folds the measured, Eq.2-normalized workload into the task's
// class (Algorithm 2) through shard 0 — the single-threaded convenience
// form of Recorder(0).Observe.
func (p *WATS) Observe(class string, measured, cmpi float64) {
	p.recs[0].Observe(class, measured, cmpi)
}

// Recorder returns worker w's owner-only completion sink. Workers beyond
// the slots pre-built at Bind (hot-added by an elastic runtime) get a sink
// constructed on the fly from the registry's growable shard set; p.recs
// itself stays immutable after Bind, so this is race-free against
// concurrent readers.
func (p *WATS) Recorder(w int) Recorder {
	if w >= 0 && w < len(p.recs) {
		return p.recs[w]
	}
	if p.ReorgEveryCompletion {
		return &reorgRecorder{rec: p.reg.Recorder(w), p: p}
	}
	return p.reg.Recorder(w)
}

// Reshape implements Reshaper: publish the new shape to the allocator so
// the next Reorganize re-scores the partition against the new per-group
// capacities (Algorithm 1 with updated Fi*Ni). K and the group speeds are
// immutable, so p.arch (read concurrently by Clusters/ClusterOf for K
// only) intentionally keeps pointing at the bound architecture.
func (p *WATS) Reshape(arch *amc.Arch) error {
	if err := checkSameShapeFamily(p.arch, arch); err != nil {
		return err
	}
	p.alloc.SetArch(arch)
	return nil
}

// Reorganizes implements Strategy: WATS has a helper-thread step.
func (p *WATS) Reorganizes() bool { return true }

// Reorganize is the helper-thread body of §III-C: re-run Algorithm 1 over
// the current class statistics (unless the map is frozen by the ablation).
func (p *WATS) Reorganize() bool {
	if p.FreezeAfterReorgs > 0 && p.alloc.Reorganizations() >= p.FreezeAfterReorgs {
		return false
	}
	return p.alloc.Reorganize()
}

// RecursionDetected reports whether the divide-and-conquer fallback has
// triggered.
func (p *WATS) RecursionDetected() bool { return p.recursionDetected.Load() }

// --- sim.Policy, via the shared strategy adapter ---

// Init implements sim.Policy.
func (p *WATS) Init(e *sim.Engine) {
	p.sim.s = p
	p.sim.init(e)
}

// Inject implements sim.Policy: the task is pushed to the origin core's
// pool for the task's cluster.
func (p *WATS) Inject(origin *sim.Core, t *task.Task) { p.sim.inject(origin, t) }

// Enqueue implements sim.Policy: children (parent-first) and continuations
// (child-first ablation) are pushed to the spawning core's pool for the
// task's cluster.
func (p *WATS) Enqueue(c *sim.Core, t *task.Task) { p.sim.enqueue(c, t) }

// Acquire implements sim.Policy via the shared Algorithm 3 walk.
func (p *WATS) Acquire(c *sim.Core) (*task.Task, float64) { return p.sim.acquire(c) }

// OnComplete implements sim.Policy.
func (p *WATS) OnComplete(c *sim.Core, t *task.Task) { p.sim.onComplete(t) }

// OnHelperTick implements sim.Policy (the helper thread of §III-C).
func (p *WATS) OnHelperTick(e *sim.Engine) { p.sim.onHelperTick() }
