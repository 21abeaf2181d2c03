package sched

import (
	"testing"

	"wats/internal/amc"
	"wats/internal/sim"
	"wats/internal/stats"
	"wats/internal/task"
	"wats/internal/workload"
)

// divideConquer is a recursive divide-and-conquer workload (the paper's
// §IV-E limitation: programs like nqueens where every task runs the same
// function, so the history finds a single class that cannot be spread
// across c-groups). Each node spawns two children of half depth; leaves
// carry the work.
type divideConquer struct {
	Depth              int     // of the binary spawn tree: 2^Depth leaves
	LeafWork, NodeWork float64 // fastest-core seconds of a leaf, of a node
}

func (w *divideConquer) Name() string { return "DnC" }

func (w *divideConquer) build(depth int) *task.Task {
	if depth == 0 {
		return task.New("dnc", w.LeafWork)
	}
	node := task.New("dnc", w.NodeWork)
	mid := node.Work / 2
	node.Spawns = []task.Spawn{
		{At: mid, Child: w.build(depth - 1)},
		{At: mid, Child: w.build(depth - 1)},
	}
	return node
}

func (w *divideConquer) Start(e *sim.Engine) { e.Inject(w.build(w.Depth)) }

func (w *divideConquer) OnQuiescent(e *sim.Engine) bool { return false }

func TestDivideConquer(t *testing.T) {
	w := &divideConquer{Depth: 5, LeafWork: 0.005, NodeWork: 0.001}
	res, err := sim.New(amc.AMC2, MustNew(KindPFT), sim.Config{Seed: 1}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	want := 1<<6 - 1 // full binary tree of depth 5
	if res.TasksDone != want {
		t.Fatalf("TasksDone=%d want %d", res.TasksDone, want)
	}
	if len(res.Truth) != 1 {
		t.Fatalf("divide-and-conquer should have one class, got %d", len(res.Truth))
	}
}

// TestDnCFallback: the §IV-E divide-and-conquer detection — a recursive
// spawn tree triggers the fallback, the run completes, and behaviour
// matches plain random stealing.
func TestDnCFallback(t *testing.T) {
	mkDnC := func() *divideConquer {
		return &divideConquer{Depth: 7, LeafWork: 0.004, NodeWork: 0.001}
	}
	p := NewWATS()
	p.DetectRecursion = true
	res, err := sim.New(amc.AMC5, p, sim.Config{Seed: 2}).Run(mkDnC())
	if err != nil {
		t.Fatal(err)
	}
	if !p.RecursionDetected() {
		t.Fatal("recursion not detected on a divide-and-conquer tree")
	}
	if res.TasksDone != 1<<8-1 {
		t.Fatalf("TasksDone=%d", res.TasksDone)
	}
	// The fallback must track PFT closely (same discipline, flat pools).
	pftRes, err := sim.New(amc.AMC5, MustNew(KindPFT), sim.Config{Seed: 2}).Run(mkDnC())
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Makespan/pftRes.Makespan - 1
	if rel > 0.15 || rel < -0.15 {
		t.Fatalf("fallback WATS (%v) far from PFT (%v)", res.Makespan, pftRes.Makespan)
	}

	// A non-recursive workload must NOT trigger detection.
	p2 := NewWATS()
	p2.DetectRecursion = true
	w := workload.GA(2)
	w.Batches = 2
	if _, err := sim.New(amc.AMC5, p2, sim.Config{Seed: 2}).Run(w); err != nil {
		t.Fatal(err)
	}
	if p2.RecursionDetected() {
		t.Fatal("false positive recursion detection on GA")
	}
}

// TestPhaseChangeAdaptation: §III-A's "timely update" — a scheduler whose
// cluster map is frozen after warmup suffers on a workload whose class
// workloads invert mid-run, while the adaptive one recovers; an EWMA
// history (extension) recovers fastest.
func TestPhaseChangeAdaptation(t *testing.T) {
	run := func(mk func() *WATS) float64 {
		var s stats.Sample
		for seed := uint64(1); seed <= 3; seed++ {
			w := workload.PhaseChange(16, seed)
			res, err := sim.New(amc.AMC5, mk(), sim.Config{Seed: seed}).Run(w)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(res.Makespan)
		}
		return s.Mean()
	}
	adaptive := run(NewWATS)
	frozen := run(func() *WATS {
		p := NewWATS()
		p.FreezeAfterReorgs = 3
		p.SetName("WATS-frozen")
		return p
	})
	ewma := run(func() *WATS {
		p := NewWATS()
		p.EWMAAlpha = 0.3
		p.SetName("WATS-ewma")
		return p
	})
	t.Logf("adaptive=%.3f frozen=%.3f ewma=%.3f", adaptive, frozen, ewma)
	if adaptive >= frozen {
		t.Fatalf("adaptive WATS (%v) not better than frozen map (%v) across a phase change",
			adaptive, frozen)
	}
	if ewma > adaptive*1.02 {
		t.Fatalf("EWMA history (%v) clearly worse than cumulative (%v)", ewma, adaptive)
	}
}

// TestEnergyFollowsMakespan: with identical work, the faster scheduler
// consumes less total energy (static power × shorter makespan).
func TestEnergyFollowsMakespan(t *testing.T) {
	run := func(k Kind) *sim.Result {
		w := workload.GA(3)
		w.Batches = 10
		res, err := sim.New(amc.AMC2, MustNew(k), sim.Config{Seed: 3}).Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cilk := run(KindCilk)
	wats := run(KindWATS)
	if wats.Makespan >= cilk.Makespan {
		t.Skip("WATS did not win on this seed; energy claim untestable")
	}
	if wats.EnergyJoules >= cilk.EnergyJoules {
		t.Fatalf("WATS used more energy (%v J) than Cilk (%v J) despite finishing sooner",
			wats.EnergyJoules, cilk.EnergyJoules)
	}
}

// TestLearningCurve: WATS's first batch runs with an empty history (every
// class routed to the fastest cluster), so it is markedly slower than the
// converged steady state — and convergence happens by the second batch
// (§III-A: statistics are usable "after several tasks are completed").
func TestLearningCurve(t *testing.T) {
	w := workload.SHA1(3)
	w.Batches = 10
	res, err := sim.New(amc.AMC5, NewWATS(), sim.Config{Seed: 3}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	batches := res.BatchMakespans()
	if len(batches) != 10 {
		t.Fatalf("batch count %d", len(batches))
	}
	var steady float64
	for _, b := range batches[2:] {
		steady += b
	}
	steady /= float64(len(batches) - 2)
	if batches[0] < 1.3*steady {
		t.Fatalf("cold batch (%v) not clearly slower than steady state (%v)", batches[0], steady)
	}
	if batches[1] > 1.3*steady {
		t.Fatalf("second batch (%v) has not converged toward steady state (%v)", batches[1], steady)
	}
}

// TestShareBaseline: the centralized task-sharing policy completes
// everything, respects the bound, and — being workload-blind — loses to
// WATS on skewed workloads just like the random stealers.
func TestShareBaseline(t *testing.T) {
	w := workload.GA(5)
	w.Batches = 8
	share, err := sim.New(amc.AMC2, MustNew(KindShare), sim.Config{Seed: 5}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if share.TasksDone != 8*129 {
		t.Fatalf("TasksDone=%d", share.TasksDone)
	}
	if share.Makespan < share.LowerBound {
		t.Fatal("bound violated")
	}
	if share.Steals != 0 {
		t.Fatalf("central pool should record no steals, got %d", share.Steals)
	}
	w2 := workload.GA(5)
	w2.Batches = 8
	watsRes, err := sim.New(amc.AMC2, NewWATS(), sim.Config{Seed: 5}).Run(w2)
	if err != nil {
		t.Fatal(err)
	}
	if watsRes.Makespan >= share.Makespan {
		t.Fatalf("WATS (%v) should beat central sharing (%v) on skewed GA",
			watsRes.Makespan, share.Makespan)
	}
}

// TestOversizedClassRescue: a workload dominated by one atomic class (80%
// of the weight) defeats Algorithm 1's partition, but preference stealing
// keeps full WATS within a modest factor of the bound — the paper's
// stated remedy for mis-allocation.
func TestOversizedClassRescue(t *testing.T) {
	w := &workload.Batch{
		BenchName: "oversized",
		Batches:   8,
		Seed:      7,
		Mix: []workload.ClassSpec{
			{Name: "dominant", Count: 100, Work: 0.02},
			{Name: "minor", Count: 28, Work: 0.018},
		},
	}
	res, err := sim.New(amc.AMC5, NewWATS(), sim.Config{Seed: 7}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalityGap() > 0.30 {
		t.Fatalf("WATS gap %.1f%% on an oversized-class workload — stealing failed to rescue",
			100*res.OptimalityGap())
	}
}
