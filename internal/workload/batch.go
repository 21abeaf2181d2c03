// Package workload provides the task-generation side of the evaluation:
// batch-based and pipeline-based workload models for the nine benchmarks
// of Table III, the α-parameterized GA workload of Fig. 8, and special
// workloads (divide-and-conquer, phase changes) used by the extension
// tests.
//
// The paper runs real Cilk ports of BWT, Bzip2, DMC, GA, LZW, MD5, SHA-1
// and the PARSEC Dedup and Ferret pipelines on a DVFS-throttled Opteron.
// Here each benchmark is modeled by its *task-class mix*: which function
// names exist, how many tasks of each are launched per batch, and their
// relative CPU demands. The mixes are calibrated against the relative
// costs of the real kernels in package kernels (see DESIGN.md); per-task
// workloads get small multiplicative noise, matching the paper's
// assumption that same-function tasks have similar workloads. The
// absolute time unit is arbitrary in simulation; we use BaseT seconds per
// "t" of the paper's notation.
package workload

import (
	"cmp"
	"fmt"
	"slices"

	"wats/internal/rng"
	"wats/internal/sim"
	"wats/internal/task"
)

// BaseT is the default value, in virtual seconds, of the paper's abstract
// task-size unit "t" (chosen so that full benchmark runs land in the
// tens-of-seconds range of Figs. 7–9).
const BaseT = 0.01

// DefaultNoise is the default coefficient of variation of per-task
// workloads within a class (same-function tasks have similar but not
// identical workloads).
const DefaultNoise = 0.05

// ClassSpec describes one task class inside a batch: Count tasks named
// Name, each costing Work fastest-core seconds on average. MemFrac and
// CMPI mark memory-bound classes for the §IV-E extension: MemFrac of the
// work is frequency-independent stall time, and CMPI is what the virtual
// performance counters report for the class's tasks.
type ClassSpec struct {
	Name    string
	Count   int
	Work    float64
	MemFrac float64
	CMPI    float64
}

// SpawnOrder selects the order a batch's tasks are spawned in.
type SpawnOrder int8

const (
	// OrderShuffled spawns tasks in a random interleaving.
	OrderShuffled SpawnOrder = iota
	// OrderLightFirst spawns tasks in ascending workload order.
	OrderLightFirst
	// OrderHeavyFirst spawns tasks in descending workload order.
	OrderHeavyFirst
)

// Batch is a batch-based workload (Table III): each batch launches the
// same class mix through a root "main" task that spawns the batch's tasks
// (parent-first or child-first according to the policy under test); the
// next batch starts when the previous one has fully completed.
type Batch struct {
	BenchName string
	Mix       []ClassSpec
	// Batches is how many times the mix is launched. Default 20.
	Batches int
	// Noise is the per-task workload CV. Default DefaultNoise; set
	// negative for exactly-repeatable workloads.
	Noise float64
	// SpawnGap is the root task's own work between consecutive spawn
	// points (the serial cost of spawning). Default 1e-5.
	SpawnGap float64
	// Seed seeds the generator's private randomness.
	Seed uint64
	// MainClass names the root spawner task's class. Default "main".
	MainClass string
	// Order controls the spawn order within a batch: OrderShuffled
	// (default) models an arbitrary interleaving; OrderLightFirst models
	// programs that enumerate small work units before large aggregates
	// (tree hashing spawns leaf chunks before archive digests);
	// OrderHeavyFirst the reverse.
	Order SpawnOrder

	// OnBatchStart, if set, is called with the upcoming batch index
	// (0-based) and may mutate Mix — used by the phase-change tests.
	OnBatchStart func(batch int, w *Batch)

	launched int
	r        *rng.Source
}

// Name implements sim.Workload.
func (w *Batch) Name() string { return w.BenchName }

func (w *Batch) defaults() {
	if w.Batches == 0 {
		w.Batches = 20
	}
	if w.Noise == 0 {
		w.Noise = DefaultNoise
	}
	if w.Noise < 0 {
		w.Noise = 0
	}
	if w.SpawnGap == 0 {
		w.SpawnGap = 1e-5
	}
	if w.MainClass == "" {
		w.MainClass = "main"
	}
	if w.r == nil {
		w.r = rng.New(w.Seed ^ 0x9E3779B97F4A7C15)
	}
}

// TasksPerBatch returns the number of leaf tasks each batch launches (a
// class with a negative count launches none).
func (w *Batch) TasksPerBatch() int {
	n := 0
	for _, c := range w.Mix {
		n += max(c.Count, 0)
	}
	return n
}

// jitter returns a multiplicative noise factor with CV ≈ w.Noise.
func (w *Batch) jitter() float64 {
	if w.Noise == 0 {
		return 1
	}
	f := 1 + w.Noise*w.r.NormFloat64()
	if f < 0.05 {
		f = 0.05
	}
	return f
}

// buildBatch builds the root spawner task for one batch: a "main" task
// whose spawn points release the batch's tasks in shuffled order (the
// order tasks are spawned in a real program is not sorted by size).
func (w *Batch) buildBatch(batch int) *task.Task {
	if w.OnBatchStart != nil {
		w.OnBatchStart(batch, w)
	}
	// One slab holds the root and every leaf, one slice every spawn point:
	// two allocations a batch, whatever its size.
	n := w.TasksPerBatch()
	slab := make([]task.Task, 0, n+1)
	spawns := make([]task.Spawn, 0, n)
	for _, c := range w.Mix {
		for i := 0; i < c.Count; i++ {
			slab = append(slab, task.Task{Class: c.Name, Work: c.Work * w.jitter(), MemFrac: c.MemFrac, CMPI: c.CMPI})
			spawns = append(spawns, task.Spawn{Child: &slab[len(slab)-1]})
		}
	}
	w.r.Shuffle(n, func(i, j int) { spawns[i], spawns[j] = spawns[j], spawns[i] })
	switch w.Order {
	case OrderLightFirst:
		slices.SortStableFunc(spawns, func(a, b task.Spawn) int { return cmp.Compare(a.Child.Work, b.Child.Work) })
	case OrderHeavyFirst:
		slices.SortStableFunc(spawns, func(a, b task.Spawn) int { return cmp.Compare(b.Child.Work, a.Child.Work) })
	}
	for i := range spawns {
		spawns[i].At = float64(i) * w.SpawnGap
	}
	slab = append(slab, task.Task{Class: w.MainClass, Work: float64(n) * w.SpawnGap, Main: true, Spawns: spawns})
	return &slab[n]
}

// Start implements sim.Workload.
func (w *Batch) Start(e *sim.Engine) {
	w.defaults()
	w.launched = 1
	e.Inject(w.buildBatch(0))
}

// OnQuiescent implements sim.Workload: launch the next batch, if any.
func (w *Batch) OnQuiescent(e *sim.Engine) bool {
	if w.launched >= w.Batches {
		return false
	}
	b := w.launched
	w.launched++
	e.Inject(w.buildBatch(b))
	return true
}

// Validate checks the mix for positive counts and workloads.
func (w *Batch) Validate() error {
	if len(w.Mix) == 0 {
		return fmt.Errorf("workload %q: empty mix", w.BenchName)
	}
	for _, c := range w.Mix {
		if c.Count < 0 || c.Work < 0 {
			return fmt.Errorf("workload %q: invalid class %+v", w.BenchName, c)
		}
	}
	return nil
}
