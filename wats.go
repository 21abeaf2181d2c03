// Package wats is a library reproduction of "WATS: Workload-Aware Task
// Scheduling in Asymmetric Multi-core Architectures" (Chen, Chen, Huang,
// Guo — IPDPS 2012).
//
// It provides:
//
//   - a model of asymmetric multi-core (AMC) architectures (c-groups of
//     cores at different speeds, including the paper's Table II presets);
//   - the WATS scheduler — history-based task allocation (Algorithms 1
//     and 2) plus preference-based task stealing (Algorithm 3) — and the
//     baselines it is evaluated against (MIT Cilk-style child-first random
//     stealing, parent-first stealing, and random task snatching);
//   - a deterministic discrete-event simulator that stands in for the
//     paper's DVFS-throttled 16-core Opteron testbed;
//   - a live goroutine-based runtime implementing the same policies, but
//     for the two that snatch, on real threads with emulated core speeds;
//   - workload models for the paper's nine benchmarks and the harnesses
//     that regenerate every table and figure of the evaluation.
//
// # Quick start
//
//	arch := wats.AMC2                      // 4×2.5 + 4×1.8 + 4×1.3 + 4×0.8 GHz
//	res, err := wats.Simulate(arch, wats.WATS, wats.GA(42), wats.Config{Seed: 1})
//	if err != nil { ... }
//	fmt.Println(res)                        // makespan, utilization, steals...
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every figure.
package wats

import (
	"io"

	"wats/internal/amc"
	"wats/internal/obs"
	liveruntime "wats/internal/runtime"
	"wats/internal/sched"
	"wats/internal/sim"
	"wats/internal/workload"
)

// Re-exported core types. The facade keeps downstream imports to a single
// package; advanced users may import the internal packages' wider APIs
// through the helpers below.
type (
	// Arch is an asymmetric multi-core architecture: k c-groups of cores,
	// each group running at its own speed.
	Arch = amc.Arch
	// CGroup is one group of same-speed cores.
	CGroup = amc.CGroup
	// Config carries the simulator's cost model and seed.
	Config = sim.Config
	// Result summarizes one simulated run.
	Result = sim.Result
	// Workload drives task creation during a run.
	Workload = sim.Workload
	// Policy is a pluggable scheduling policy.
	Policy = sim.Policy
	// Kind names one of the built-in scheduling policies.
	Kind = sched.Kind
	// BatchWorkload is a batch-based workload (Table III).
	BatchWorkload = workload.Batch
	// PipelineWorkload is a pipeline-based workload (Table III).
	PipelineWorkload = workload.Pipeline
	// ClassSpec describes one task class of a batch mix.
	ClassSpec = workload.ClassSpec
	// StageSpec describes one pipeline stage.
	StageSpec = workload.StageSpec
	// Strategy is one engine-agnostic scheduling policy: the spawn
	// discipline, task-to-pool allocation and acquisition order both the
	// simulator and the live runtime consume.
	Strategy = sched.Strategy
	// Runtime is the live goroutine-based scheduler: the simulator's
	// policy kinds but RTS and WATS-TS (goroutines cannot be snatched), on
	// real threads with emulated core speeds.
	Runtime = liveruntime.Runtime
	// RuntimeConfig configures a live Runtime (architecture, policy kind
	// or custom strategy, speed emulation, pool implementation).
	RuntimeConfig = liveruntime.Config
	// Ctx is the execution context a live task receives; it spawns
	// children and joins groups.
	Ctx = liveruntime.Ctx
	// Group joins a set of live tasks (help-first work-stealing join).
	Group = liveruntime.Group
	// WorkerStats reports one live worker's counters.
	WorkerStats = liveruntime.WorkerStats
	// Tracer records scheduler events and metrics for one engine run;
	// attach one through RuntimeConfig.Obs to turn tracing on.
	Tracer = obs.Tracer
	// TraceEvent is one recorded scheduler event (spawn, pop, steal,
	// complete, repartition; snatch in simulator streams).
	TraceEvent = obs.Event
	// TraceStream is one engine run's events for the Chrome exporter.
	TraceStream = obs.Stream
	// RuntimeSnapshot is a point-in-time introspection view of a live
	// Runtime: task classes, the c-group partition, preference tables
	// and deque depths.
	RuntimeSnapshot = liveruntime.Snapshot
)

// The built-in scheduling policies.
const (
	Cilk   = sched.KindCilk   // child-first spawning, random stealing
	PFT    = sched.KindPFT    // parent-first spawning, random stealing
	RTS    = sched.KindRTS    // Cilk + random task snatching
	WATS   = sched.KindWATS   // the paper's scheduler
	WATSNP = sched.KindWATSNP // WATS without cross-cluster stealing
	WATSTS = sched.KindWATSTS // WATS + workload-aware snatching
)

// Table II architecture presets (16 cores each; see DESIGN.md).
var (
	AMC1 = amc.AMC1
	AMC2 = amc.AMC2
	AMC3 = amc.AMC3
	AMC4 = amc.AMC4
	AMC5 = amc.AMC5
	AMC6 = amc.AMC6
	AMC7 = amc.AMC7
)

// TableII lists the presets in paper order.
var TableII = amc.TableII

// ErrShutdown is returned by Runtime.Spawn once Shutdown has begun.
var ErrShutdown = liveruntime.ErrShutdown

// NewArch builds a validated architecture from c-groups (any order;
// equal-speed groups are merged, order is normalized fastest-first).
func NewArch(name string, groups ...CGroup) (*Arch, error) {
	return amc.New(name, groups...)
}

// NewPolicy constructs a fresh instance of a built-in policy. Policies
// are single-use: construct a new one per Simulate call when driving the
// engine manually.
func NewPolicy(kind Kind) (Policy, error) { return sched.New(kind) }

// NewStrategy constructs the engine-agnostic strategy of a built-in
// policy kind — the single construction point the simulator and the live
// runtime share. Strategies are single-use: one per engine run.
func NewStrategy(kind Kind) (Strategy, error) { return sched.NewStrategy(kind) }

// NewRuntime starts a live goroutine-based scheduler: one worker per
// core of cfg.Arch, running the policy selected by cfg.Policy (any Kind
// but the snatching RTS and WATS-TS, which it refuses; defaults to WATS)
// or a caller-configured cfg.Strategy.
//
//	rt, err := wats.NewRuntime(wats.RuntimeConfig{Arch: wats.AMC2, Policy: wats.WATS})
//	if err != nil { ... }
//	defer rt.Shutdown()
//	rt.Spawn("work", func(ctx *wats.Ctx) { ... })
//	rt.Wait()
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return liveruntime.New(cfg) }

// NewTracer returns a scheduler-event tracer for the given worker count.
// ringSize is the per-worker event capacity (0 = default). Pass the
// tracer as RuntimeConfig.Obs; a nil Obs keeps every tracing hook down
// to a single predictable branch.
func NewTracer(workers, ringSize int) *Tracer { return obs.NewTracer(workers, ringSize) }

// WriteChrome writes one or more event streams as a Chrome trace_event
// JSON document (load it in about://tracing or ui.perfetto.dev). Merge a
// live run with a simulated one by passing both streams.
func WriteChrome(w io.Writer, streams ...TraceStream) error { return obs.WriteChrome(w, streams...) }

// Simulate runs one workload under one policy on one architecture and
// returns the run's result. It is deterministic in cfg.Seed.
func Simulate(arch *Arch, kind Kind, w Workload, cfg Config) (*Result, error) {
	p, err := sched.New(kind)
	if err != nil {
		return nil, err
	}
	return sim.New(arch, p, cfg).Run(w)
}

// SimulatePolicy is Simulate with a caller-constructed policy (custom
// policies or configured WATS variants).
func SimulatePolicy(arch *Arch, p Policy, w Workload, cfg Config) (*Result, error) {
	return sim.New(arch, p, cfg).Run(w)
}

// Benchmark workloads of Table III.
var (
	// GA returns the island-model genetic algorithm workload (α=8).
	GA = workload.GA
	// BWT returns the Burrows-Wheeler transform workload.
	BWT = workload.BWT
	// Bzip2 returns the Bzip2-like compression workload.
	Bzip2 = workload.Bzip2
	// DMC returns the dynamic Markov coding workload.
	DMC = workload.DMC
	// LZW returns the Lempel-Ziv-Welch workload.
	LZW = workload.LZW
	// MD5 returns the message-digest workload.
	MD5 = workload.MD5
	// SHA1 returns the SHA-1 workload.
	SHA1 = workload.SHA1
	// Dedup returns the PARSEC Dedup pipeline workload.
	Dedup = workload.Dedup
	// Ferret returns the PARSEC Ferret pipeline workload.
	Ferret = workload.Ferret
	// GAAlpha returns the Fig. 8 GA workload for a given α.
	GAAlpha = workload.GAAlpha
	// Benchmarks returns all nine Table III workloads in figure order.
	Benchmarks = workload.Benchmarks
	// MixedMemory returns the §IV-E mixed CPU/memory-bound workload.
	MixedMemory = workload.MixedMemory
	// ParseReplay loads a workload from a CSV task trace
	// (batch,class,work[,memfrac[,cmpi]]).
	ParseReplay = workload.ParseReplay
)

// WATSMem is the §IV-E memory-aware WATS extension.
const WATSMem = sched.KindWATSMem
