package sched

import (
	"math"
	"testing"

	"wats/internal/amc"
	"wats/internal/sim"
	"wats/internal/task"
	"wats/internal/workload"
)

func smallGA(seed uint64) *workload.Batch {
	w := workload.GA(seed)
	w.Batches = 4
	return w
}

func TestNewKnownKinds(t *testing.T) {
	for _, k := range Kinds {
		p, err := New(k)
		if err != nil {
			t.Fatalf("New(%s): %v", k, err)
		}
		if p.Name() != string(k) {
			t.Fatalf("Name()=%q want %q", p.Name(), k)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew("bogus")
}

func TestAllPoliciesCompleteAllTasks(t *testing.T) {
	want := 4 * (128 + 1) // 4 batches of 128 leaves + 1 root each
	for _, k := range Kinds {
		res, err := sim.New(amc.AMC2, MustNew(k), sim.Config{Seed: 3}).Run(smallGA(3))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if res.TasksDone != want {
			t.Fatalf("%s: TasksDone=%d want %d", k, res.TasksDone, want)
		}
		if res.Makespan < res.LowerBound-1e-9 {
			t.Fatalf("%s: makespan below lower bound", k)
		}
	}
}

func TestSpawnDiscipline(t *testing.T) {
	// Cilk and RTS are child-first; PFT and the WATS family parent-first.
	childFirst := map[Kind]bool{
		KindCilk: true, KindRTS: true,
		KindPFT: false, KindWATS: false, KindWATSNP: false, KindWATSTS: false,
	}
	for k, want := range childFirst {
		if got := MustNew(k).ChildFirst(); got != want {
			t.Errorf("%s.ChildFirst()=%v want %v", k, got, want)
		}
	}
}

func TestOnlySnatchersSnatch(t *testing.T) {
	for _, k := range Kinds {
		res, err := sim.New(amc.AMC1, MustNew(k), sim.Config{Seed: 5}).Run(smallGA(5))
		if err != nil {
			t.Fatal(err)
		}
		snatcher := k == KindRTS || k == KindWATSTS
		if snatcher && res.Snatches == 0 {
			t.Errorf("%s: expected snatches on AMC1", k)
		}
		if !snatcher && res.Snatches != 0 {
			t.Errorf("%s: unexpected snatches (%d)", k, res.Snatches)
		}
	}
}

func TestSnatchOnlyFromSlowerGroups(t *testing.T) {
	for _, k := range []Kind{KindRTS, KindWATSTS} {
		res, err := sim.New(amc.AMC2, MustNew(k), sim.Config{Seed: 7}).Run(smallGA(7))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cores {
			if c.Group == 0 && c.SnatchedFrom > 0 {
				t.Errorf("%s: fastest-group core %d was snatched from", k, c.ID)
			}
			if c.Group == amc.AMC2.K()-1 && c.Snatches > 0 {
				t.Errorf("%s: slowest-group core %d snatched", k, c.ID)
			}
		}
	}
}

func TestWATSEqualsPFTOnSymmetric(t *testing.T) {
	// §IV-A: "For symmetric architecture, WATS schedules tasks in the
	// same way as PFT" — makespans agree within noise on AMC 7.
	var ms [2]float64
	for i, k := range []Kind{KindPFT, KindWATS} {
		res, err := sim.New(amc.AMC7, MustNew(k), sim.Config{Seed: 11}).Run(smallGA(11))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = res.Makespan
	}
	if rel := math.Abs(ms[0]-ms[1]) / ms[0]; rel > 0.03 {
		t.Fatalf("WATS (%v) vs PFT (%v) differ by %.1f%% on symmetric arch", ms[1], ms[0], 100*rel)
	}
}

func TestWATSNPNeverCrossesClusters(t *testing.T) {
	// Single-class workload: with every task in cluster 0, WATS-NP must
	// leave every non-fastest c-group idle.
	uniform := func() *workload.Batch {
		return &workload.Batch{BenchName: "Uniform", Mix: []workload.ClassSpec{{Name: "uni", Count: 64, Work: 0.02}}, Batches: 3, Seed: 13}
	}
	res, err := sim.New(amc.AMC5, MustNew(KindWATSNP), sim.Config{Seed: 13, CollectTasks: true}).Run(uniform())
	if err != nil {
		t.Fatal(err)
	}
	// The "uni" class is allocated to the fastest cluster; under WATS-NP
	// no slow core may execute it. (The tiny root "main" tasks may land
	// in a slower cluster, so filter by class.)
	for _, tk := range res.Completed {
		if tk.Class == "uni" && amc.AMC5.GroupOf(tk.LastCore) != 0 {
			t.Fatalf("WATS-NP ran a uni task on non-fastest core %d", tk.LastCore)
		}
	}
	// Full WATS does use the slow cores via preference stealing.
	res2, err := sim.New(amc.AMC5, MustNew(KindWATS), sim.Config{Seed: 13}).Run(uniform())
	if err != nil {
		t.Fatal(err)
	}
	slowRan := 0
	for _, c := range res2.Cores {
		if c.Group != 0 {
			slowRan += c.TasksRun
		}
	}
	if slowRan == 0 {
		t.Fatal("WATS never used slow cores on a cluster-0-only workload")
	}
}

func TestWATSOrderingOnSkewedWorkload(t *testing.T) {
	// The paper's headline ordering on a skewed CPU-bound workload:
	// WATS < RTS < Cilk (makespans), and WATS-NP between WATS and PFT.
	w := func(seed uint64) sim.Workload { g := workload.GA(seed); g.Batches = 20; return g }
	ms := map[Kind]float64{}
	for _, k := range Kinds {
		var sum float64
		for seed := uint64(1); seed <= 3; seed++ {
			g := w(seed)
			res, err := sim.New(amc.AMC2, MustNew(k), sim.Config{Seed: seed}).Run(g)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Makespan
		}
		ms[k] = sum / 3
	}
	t.Logf("makespans: %v", ms)
	if !(ms[KindWATS] < ms[KindRTS]) {
		t.Errorf("WATS (%v) should beat RTS (%v)", ms[KindWATS], ms[KindRTS])
	}
	if !(ms[KindRTS] < ms[KindCilk]) {
		t.Errorf("RTS (%v) should beat Cilk (%v) on GA/AMC2", ms[KindRTS], ms[KindCilk])
	}
	if !(ms[KindWATS] < ms[KindWATSNP]) {
		t.Errorf("WATS (%v) should beat WATS-NP (%v)", ms[KindWATS], ms[KindWATSNP])
	}
	if !(ms[KindWATSNP] < ms[KindPFT]) {
		t.Errorf("WATS-NP (%v) should beat PFT (%v)", ms[KindWATSNP], ms[KindPFT])
	}
}

func TestWATSLearnsClasses(t *testing.T) {
	p := NewWATS()
	res, err := sim.New(amc.AMC2, p, sim.Config{Seed: 17}).Run(smallGA(17))
	if err != nil {
		t.Fatal(err)
	}
	reg := p.Allocator().Registry()
	if reg.Len() < 10 {
		t.Fatalf("registry learned %d classes, want >= 10", reg.Len())
	}
	// Measured averages must match ground truth closely (parent-first
	// measurement is exact up to workload noise).
	for name, truth := range res.Truth {
		if name == "main" {
			continue
		}
		c, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("class %s not learned", name)
		}
		if rel := math.Abs(c.AvgWork-truth.TrueMean) / truth.TrueMean; rel > 0.05 {
			t.Fatalf("class %s measured %v vs true %v (%.1f%% off)",
				name, c.AvgWork, truth.TrueMean, 100*rel)
		}
	}
	if p.Allocator().Reorganizations() == 0 {
		t.Fatal("helper thread never reorganized")
	}
}

func TestChildFirstWATSCorruptsHistory(t *testing.T) {
	// Ablation: running WATS with child-first spawning corrupts the class
	// statistics (the §III-C argument for parent-first). Saturate the
	// machine with parent tasks that each spawn a child mid-way: with all
	// cores busy, the suspended parent's continuation is rarely stolen,
	// the spawning core runs the child inline, and the parent's cycle
	// counter absorbs the child's work.
	run := func(childFirst bool) float64 {
		p := NewWATS()
		p.ChildFirstSpawn = childFirst
		w := &nestedWorkload{batches: 4, count: 48, work: 0.01}
		if _, err := sim.New(amc.AMC2, p, sim.Config{Seed: 19}).Run(w); err != nil {
			t.Fatal(err)
		}
		c, ok := p.Allocator().Registry().Lookup("parent")
		if !ok {
			t.Fatal("parent class missing")
		}
		return c.AvgWork
	}
	pf := run(false)
	cf := run(true)
	if math.Abs(pf-0.01) > 0.002 {
		t.Fatalf("parent-first measured %v, want ~0.01", pf)
	}
	// Only continuations resumed by their spawning core accrue inline
	// children (stolen continuations measure correctly), so the observed
	// inflation is partial but must be clearly present.
	if cf < 1.15*pf {
		t.Fatalf("child-first measurement not inflated: cf=%v pf=%v", cf, pf)
	}
}

// nestedWorkload launches batches of "parent" tasks that each spawn one
// equal-size "child" task at their midpoint.
type nestedWorkload struct {
	batches, count int
	work           float64
	launched       int
}

func (n *nestedWorkload) Name() string { return "nested" }

func (n *nestedWorkload) inject(e *sim.Engine) {
	for i := 0; i < n.count; i++ {
		parent := task.New("parent", n.work)
		parent.Spawns = []task.Spawn{{At: n.work / 2, Child: task.New("child", n.work)}}
		e.Inject(parent)
	}
}

func (n *nestedWorkload) Start(e *sim.Engine) {
	n.launched = 1
	n.inject(e)
}

func (n *nestedWorkload) OnQuiescent(e *sim.Engine) bool {
	if n.launched >= n.batches {
		return false
	}
	n.launched++
	n.inject(e)
	return true
}

// TestPreferenceOrder drives WATS.Acquire directly through a scripted
// scenario and checks Algorithm 3's order: own pool of own cluster first,
// then stealing within the cluster, then weaker clusters, then faster.
func TestPreferenceOrder(t *testing.T) {
	arch := amc.MustNew("3g", amc.CGroup{Freq: 3, N: 1}, amc.CGroup{Freq: 2, N: 1}, amc.CGroup{Freq: 1, N: 1})
	p := NewWATS()
	e := sim.New(arch, p, sim.Config{Seed: 23})
	p.Init(e)
	// Teach the allocator three classes with clearly separated sizes.
	reg := p.Allocator().Registry()
	for i := 0; i < 3; i++ {
		reg.Observe("big", 9) // weight 27 -> cluster 0 (share 45.5)
	}
	for i := 0; i < 8; i++ {
		reg.Observe("mid", 3) // weight 24 -> cluster 1
	}
	for i := 0; i < 40; i++ {
		reg.Observe("small", 1) // weight 40 -> cluster 2
	}
	p.Allocator().Reorganize()
	m := p.Allocator().Map()
	if m.ClusterOf("big") != 0 || m.ClusterOf("small") != 2 {
		t.Fatalf("unexpected cluster map: big=%d mid=%d small=%d",
			m.ClusterOf("big"), m.ClusterOf("mid"), m.ClusterOf("small"))
	}
	midCore := e.Cores()[1]

	mk := func(class string) *task.Task {
		tk := task.New(class, 1)
		tk.State = task.Queued
		return tk
	}

	// 1. Own pool, own cluster wins over everything else.
	own := mk("mid")
	p.Enqueue(midCore, own)
	p.Enqueue(e.Cores()[2], mk("small"))
	p.Enqueue(e.Cores()[0], mk("big"))
	if got, _ := p.Acquire(midCore); got != own {
		t.Fatalf("Acquire returned %v, want own-cluster local task", got)
	}

	// 2. With the own cluster empty everywhere, the weaker cluster
	// (small) is preferred over the faster one (big).
	got, _ := p.Acquire(midCore)
	if got == nil || got.Class != "small" {
		t.Fatalf("Acquire=%v, want the weaker cluster's task first", got)
	}

	// 3. Only the faster cluster remains.
	got, _ = p.Acquire(midCore)
	if got == nil || got.Class != "big" {
		t.Fatalf("Acquire=%v, want the faster cluster's task last", got)
	}

	// 4. Nothing left.
	if got, _ := p.Acquire(midCore); got != nil {
		t.Fatalf("Acquire on empty pools returned %v", got)
	}
}

func TestWATSSetName(t *testing.T) {
	p := NewWATS()
	p.SetName("custom")
	if p.Name() != "custom" {
		t.Fatal("SetName ignored")
	}
}
