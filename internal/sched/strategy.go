package sched

import (
	"fmt"

	"wats/internal/amc"
	"wats/internal/history"
	"wats/internal/task"
)

// Recorder is an owner-only completion sink: one worker's handle for
// recording completed-task statistics without synchronization. The
// *task.Recorder shard satisfies it directly; strategies with
// per-completion hooks (WATS's reorganize-every-completion ablation) wrap
// it.
type Recorder interface {
	// Observe folds one completed task's Eq.2-normalized workload and
	// CMPI into the owner's shard of the class history.
	Observe(class string, measured, cmpi float64)
}

// SnatchMode selects the snatch discipline of the acquisition axis: what an
// idle core does when every steal attempt has failed.
type SnatchMode int

const (
	// SnatchNone never preempts (Cilk, PFT, WATS, WATS-NP, Share).
	SnatchNone SnatchMode = iota
	// SnatchRandom preempts a uniformly random busy core of a strictly
	// slower c-group (RTS, Bender & Rabin's model).
	SnatchRandom
	// SnatchLargest preempts the slower core running the task with the
	// largest estimated remaining workload (WATS-TS, §IV-D).
	SnatchLargest
)

// String names the mode for reports and the policy table.
func (m SnatchMode) String() string {
	switch m {
	case SnatchRandom:
		return "random"
	case SnatchLargest:
		return "largest-remaining"
	default:
		return "none"
	}
}

// CheckLive is the live runtime's one restriction on strategies: a
// running goroutine cannot be preempted, so a snatch could never fire
// there. The error names what the strategy would behave as instead: RTS
// as Cilk, WATS-TS as WATS, a configured strategy as itself unsnatched.
func CheckLive(s Strategy) error {
	if s.SnatchMode() == SnatchNone {
		return nil
	}
	as := string(s.Kind()) + " without snatching"
	switch s.Kind() {
	case KindRTS:
		as = string(KindCilk)
	case KindWATSTS:
		as = string(KindWATS)
	}
	return fmt.Errorf("sched: %s snatches running tasks (%s snatching), which the live runtime cannot do: there it would behave as %s",
		s.Kind(), s.SnatchMode(), as)
}

// LiveKinds lists the built-in kinds, WATS-Mem included, whose strategies
// pass CheckLive: the kinds that run differently from one another live.
func LiveKinds() []Kind {
	var out []Kind
	for _, k := range append(append([]Kind{}, Kinds...), KindWATSMem) {
		if s, err := NewStrategy(k); err == nil && CheckLive(s) == nil {
			out = append(out, k)
		}
	}
	return out
}

// Strategy is the engine-agnostic core of a scheduling policy: the three
// axes the paper varies, decoupled from any execution engine.
//
//   - Spawn discipline: ChildFirst — work-first (MIT Cilk) vs parent-first
//     (PFT, WATS; §III-C).
//   - Task-to-pool allocation: ClusterOf — which task cluster (pool column)
//     a class is routed to: always 0 for the random family, history-based
//     for WATS (Algorithms 1 and 2), memory-aware for WATS-Mem (§IV-E).
//   - Acquisition: AcquireOrder + SnatchMode — the cluster walk an idle
//     core performs (own pool pop, then steal; Algorithm 3's preference
//     lists for WATS) and the preemption fallback (RTS, WATS-TS).
//
// One Strategy implementation exists per policy kind and is consumed by
// both execution engines: package sim adapts it to the discrete-event
// engine (see the sim adapter in this package) and internal/runtime drives
// real goroutine workers with it. A Strategy is single-use: Bind it to one
// architecture, run it on one engine, then discard it.
//
// Thread-safety: Bind is called once before the run; every other method
// may be called concurrently by the live runtime's workers. The simulator
// calls everything from its single-threaded event loop.
type Strategy interface {
	// Kind names the policy the strategy implements.
	Kind() Kind
	// Bind fixes the architecture the strategy schedules for and allocates
	// its per-run state (class registry, allocator, preference lists).
	// It must be called exactly once, before any other method.
	Bind(arch *amc.Arch)
	// ChildFirst selects the spawn discipline: true for work-first (MIT
	// Cilk), false for parent-first (PFT, WATS).
	ChildFirst() bool
	// Clusters returns the number of task clusters — pool columns per core:
	// the architecture's c-group count for the WATS family, 1 for the
	// single-pool policies. Valid after Bind.
	Clusters() int
	// Central reports whether the policy uses one global FIFO queue instead
	// of per-core pools (the task-sharing baseline).
	Central() bool
	// ClusterOf routes a task class to a cluster index (allocation axis).
	ClusterOf(class string) int
	// AcquireOrder returns the cluster indices an idle core in c-group
	// group walks, in order, trying a local pop then steals at each stop
	// (acquisition axis). The returned slice is shared and read-only.
	AcquireOrder(group int) []int
	// SnatchMode returns the preemption discipline used after every steal
	// has failed.
	SnatchMode() SnatchMode
	// EstimateWork returns the estimated total normalized workload of a
	// class from the history, or a negative value when the class is
	// unknown. Engines use it for workload-aware snatching.
	EstimateWork(class string) float64
	// NoteSpawn observes one spawn edge (parent class -> child class),
	// feeding the divide-and-conquer recursion detector (§IV-E).
	NoteSpawn(parentClass, childClass string)
	// Observe folds one completed task's Eq.2-normalized workload and CMPI
	// into the class history (Algorithm 2). It is the single-threaded
	// convenience form of Recorder(0).Observe; concurrent engines must use
	// one Recorder per worker instead.
	Observe(class string, measured, cmpi float64)
	// Recorder returns worker w's owner-only completion sink — the
	// lock-free record half of Algorithm 2. Exactly one goroutine may use
	// a given recorder; recorded observations are merged into the class
	// history at reorganization time (or on any cold-path registry read).
	// The live runtime holds one per worker; the sim adapter maps its
	// single-threaded loop onto Recorder(0). Valid after Bind.
	Recorder(worker int) Recorder
	// Reorganizes reports whether the policy has a periodic reorganization
	// step at all; engines skip the helper thread/tick when false.
	Reorganizes() bool
	// Reorganize re-runs Algorithm 1 over the collected statistics (the
	// helper-thread body, §III-C), reporting whether the map was rebuilt.
	Reorganize() bool
	// Registry exposes the class statistics collected so far (never nil
	// after Bind).
	Registry() *task.Registry
	// Allocator exposes the history-based allocator (never nil after Bind;
	// policies without a reorganization step simply never rebuild it).
	Allocator() *history.Allocator
}

// Allocation rule labels: which branch of the allocation axis fired for
// one class at one decision instant. They name the paper's cases —
// history-based partition (Algorithm 1), the unknown-class default
// (fastest c-group), WATS-Mem's CMPI routing (§IV-E), and the
// divide-and-conquer fallback (§IV-E) — plus the two degenerate layouts
// of the history-less policies.
const (
	// RuleHistory: the class was in the published Algorithm 1 partition.
	RuleHistory = "history-partition"
	// RuleDefaultFastest: class unknown to the history, routed to the
	// fastest c-group by default.
	RuleDefaultFastest = "default-fastest"
	// RuleMemBound: WATS-Mem saw AvgCMPI above the threshold and routed
	// the class to the slowest c-group.
	RuleMemBound = "memaware-slowest"
	// RuleRecursion: the recursion detector collapsed allocation to
	// cluster 0 (divide-and-conquer fallback).
	RuleRecursion = "recursion-fallback"
	// RuleSinglePool: history-less per-core-pool policy; everything is
	// cluster 0 by construction.
	RuleSinglePool = "single-pool"
	// RuleCentral: the task-sharing baseline's one global FIFO.
	RuleCentral = "central-fifo"
)

// AllocationDecision is an explained allocation: the cluster ClusterOf
// would choose for a class right now, the rule that chooses it, and the
// class history backing the choice (TC(f, n, w) at decision time; EstWork
// < 0 when the class is unknown).
type AllocationDecision struct {
	Cluster  int
	Rule     string
	EstWork  float64
	EstCount int64
}

// Explainer is the optional introspection extension of Strategy consumed
// by the decision ledger: ClusterOf plus the why. Implementations must
// be safe for concurrent use after Bind and must mirror ClusterOf's
// logic exactly (same inputs, same cluster). The runtime asserts for it
// once at construction; strategies without it still get ledger records,
// just without a rule label.
type Explainer interface {
	ExplainAllocation(class string) AllocationDecision
}

// Reshaper is the optional elastic-capacity extension of Strategy: a
// policy that can re-score its partition when the machine shape changes
// online (Ni of some c-group grows or shrinks; K and the group speeds are
// immutable for the lifetime of a run). The live runtime asserts for it
// during Resize; policies that never consult per-group capacities need not
// implement it.
type Reshaper interface {
	// Reshape publishes a new architecture shape. The next reorganization
	// re-partitions task classes against the new per-group capacities even
	// if no class statistics changed. The new shape must have the same
	// c-group count and speeds as the bound architecture.
	Reshape(arch *amc.Arch) error
}

// NewStrategy constructs a fresh, unbound strategy for the given policy
// kind. It is the single construction point both engines share: the
// simulator wraps the result in a sim.Policy adapter (see New), the live
// runtime drives its workers with it directly.
func NewStrategy(kind Kind) (Strategy, error) {
	switch kind {
	case KindCilk:
		return &base{kind: KindCilk, childFirst: true}, nil
	case KindPFT:
		return &base{kind: KindPFT}, nil
	case KindRTS:
		return &base{kind: KindRTS, childFirst: true, snatch: SnatchRandom}, nil
	case KindShare:
		return &base{kind: KindShare, central: true}, nil
	case KindWATS:
		return NewWATS(), nil
	case KindWATSNP:
		return NewWATSNP(), nil
	case KindWATSTS:
		return NewWATSTS(), nil
	case KindWATSMem:
		return NewWATSMem(), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy kind %q", kind)
	}
}

// Triple is one row of the policy table: the spawn/allocation/acquisition
// strategy triple a kind is assembled from (Table I of DESIGN.md).
type Triple struct {
	Kind       Kind
	Spawn      string // spawn discipline
	Allocation string // task-to-pool allocation
	Acquire    string // acquisition order incl. snatch fallback
}

// Describe returns the strategy triple of every built-in kind, in Kinds
// order plus WATS-Mem. watsbench prints it as the "policies" experiment.
func Describe() []Triple {
	return []Triple{
		{KindShare, "parent-first", "central FIFO queue", "dequeue from the shared queue (lock per acquire)"},
		{KindCilk, "child-first", "spawning core's single pool", "local pop, then random steal"},
		{KindPFT, "parent-first", "spawning core's single pool", "local pop, then random steal"},
		{KindRTS, "child-first", "spawning core's single pool", "local pop, random steal, then random snatch"},
		{KindWATS, "parent-first", "history-based clusters (Alg. 1+2)", "preference walk (Alg. 3): pop + steal per cluster"},
		{KindWATSNP, "parent-first", "history-based clusters (Alg. 1+2)", "own cluster only: pop + steal"},
		{KindWATSTS, "parent-first", "history-based clusters (Alg. 1+2)", "preference walk, then largest-remaining snatch"},
		{KindWATSMem, "parent-first", "history-based + CMPI routing (§IV-E)", "preference walk (Alg. 3): pop + steal per cluster"},
	}
}

// base is the shared strategy of the history-less policies (Cilk, PFT,
// RTS, Share): one pool column, every class routed to it, no
// reorganization. A registry is still kept so engines can report learned
// class statistics uniformly across kinds.
type base struct {
	kind       Kind
	childFirst bool
	snatch     SnatchMode
	central    bool

	arch  *amc.Arch
	reg   *task.Registry
	alloc *history.Allocator
	order [][]int
}

func (b *base) Kind() Kind { return b.kind }

func (b *base) Bind(arch *amc.Arch) {
	if b.arch != nil {
		panic("sched: Strategy is single-use; Bind called twice")
	}
	b.arch = arch
	b.reg = task.NewSharded(arch.NumCores())
	b.alloc = history.NewAllocator(b.reg, arch)
	b.order = [][]int{{0}}
}

func (b *base) ChildFirst() bool                   { return b.childFirst }
func (b *base) Clusters() int                      { return 1 }
func (b *base) Central() bool                      { return b.central }
func (b *base) ClusterOf(class string) int         { return 0 }
func (b *base) AcquireOrder(group int) []int       { return b.order[0] }
func (b *base) SnatchMode() SnatchMode             { return b.snatch }
func (b *base) NoteSpawn(parent, child string)     {}
func (b *base) Observe(class string, m, c float64) { b.reg.Recorder(0).Observe(class, m, c) }
func (b *base) Recorder(w int) Recorder            { return b.reg.Recorder(w) }
func (b *base) Reorganizes() bool                  { return false }

// Reshape implements Reshaper. The history-less policies have a single
// pool column whatever the shape, so only the allocator's notion of the
// architecture is refreshed (for introspection surfaces).
func (b *base) Reshape(arch *amc.Arch) error {
	if err := checkSameShapeFamily(b.arch, arch); err != nil {
		return err
	}
	b.alloc.SetArch(arch)
	return nil
}

// checkSameShapeFamily validates that next is a legal online reshape of
// bound: same c-group count, same speeds, only Ni differing.
func checkSameShapeFamily(bound, next *amc.Arch) error {
	if next == nil {
		return fmt.Errorf("sched: reshape to nil architecture")
	}
	if next.K() != bound.K() {
		return fmt.Errorf("sched: reshape changes c-group count %d -> %d; K is immutable online", bound.K(), next.K())
	}
	for i := range bound.Groups {
		if bound.Groups[i].Freq != next.Groups[i].Freq {
			return fmt.Errorf("sched: reshape changes c-group %d speed %.3f -> %.3f; speeds are immutable online",
				i, bound.Groups[i].Freq, next.Groups[i].Freq)
		}
	}
	return nil
}
func (b *base) Reorganize() bool              { return false }
func (b *base) Registry() *task.Registry      { return b.reg }
func (b *base) Allocator() *history.Allocator { return b.alloc }

// EstimateWork reports the class average even for history-less kinds: RTS
// snatches randomly and never consults it, but a uniform answer keeps the
// engines policy-blind.
func (b *base) EstimateWork(class string) float64 {
	if cl, ok := b.reg.Lookup(class); ok {
		return cl.AvgWork
	}
	return -1
}

// ExplainAllocation implements Explainer. The history-less policies have
// exactly one layout each, so the rule is a constant of the kind; the
// class history still rides along for the ledger.
func (b *base) ExplainAllocation(class string) AllocationDecision {
	d := AllocationDecision{Rule: RuleSinglePool, EstWork: -1}
	if b.central {
		d.Rule = RuleCentral
	}
	if b.reg == nil { // not yet bound to an engine
		return d
	}
	if cl, ok := b.reg.Lookup(class); ok {
		d.EstWork, d.EstCount = cl.AvgWork, int64(cl.Count)
	}
	return d
}
