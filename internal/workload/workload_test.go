package workload

import (
	"math"
	"slices"
	"testing"

	"wats/internal/amc"
	"wats/internal/sim"
	"wats/internal/task"
)

// fifoPolicy is a minimal policy for driving workloads in tests.
type fifoPolicy struct {
	pools *sim.PoolSet
	e     *sim.Engine
}

func (p *fifoPolicy) Name() string     { return "fifo" }
func (p *fifoPolicy) ChildFirst() bool { return false }
func (p *fifoPolicy) Init(e *sim.Engine) {
	p.e = e
	p.pools = sim.NewPoolSet(e, 1)
}
func (p *fifoPolicy) Inject(o *sim.Core, t *task.Task) { p.pools.Push(o.ID, 0, t) }
func (p *fifoPolicy) Enqueue(c *sim.Core, t *task.Task) {
	p.pools.Push(c.ID, 0, t)
}
func (p *fifoPolicy) OnComplete(c *sim.Core, t *task.Task) {}
func (p *fifoPolicy) OnHelperTick(e *sim.Engine)           {}
func (p *fifoPolicy) Acquire(c *sim.Core) (*task.Task, float64) {
	if t := p.pools.PopBottom(c.ID, 0); t != nil {
		return t, 0
	}
	if t := p.pools.StealRandom(c, 0); t != nil {
		return t, 0
	}
	return nil, 0
}

func runWorkload(t *testing.T, w sim.Workload) *sim.Result {
	t.Helper()
	res, err := sim.New(amc.AMC2, &fifoPolicy{}, sim.Config{Seed: 1, CollectTasks: true}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEveryBenchmarkBatchHas128Tasks(t *testing.T) {
	for _, name := range BenchmarkNames {
		w := ByName(name, 1)
		if w == nil {
			t.Fatalf("ByName(%q) returned nil", name)
		}
		if b, ok := w.(*Batch); ok {
			if got := b.TasksPerBatch(); got != 128 {
				t.Errorf("%s: %d tasks per batch, want 128", name, got)
			}
			if err := b.Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	if ByName("nothing", 1) != nil {
		t.Error("unknown benchmark returned a workload")
	}
}

func TestBatchRunsAllBatches(t *testing.T) {
	w := GA(3)
	w.Batches = 3
	res := runWorkload(t, w)
	want := 3 * (128 + 1) // leaves + root per batch
	if res.TasksDone != want {
		t.Fatalf("TasksDone=%d want %d", res.TasksDone, want)
	}
}

func TestBatchNoiseControls(t *testing.T) {
	// Noise < 0 produces exactly the specified workloads.
	w := &Batch{BenchName: "x", Batches: 1, Noise: -1, Seed: 1,
		Mix: []ClassSpec{{Name: "a", Count: 10, Work: 0.02}}}
	res := runWorkload(t, w)
	for _, tk := range res.Completed {
		if tk.Class == "a" && tk.Work != 0.02 {
			t.Fatalf("noise-free task has work %v", tk.Work)
		}
	}
	// Default noise produces small variation around the mean.
	w2 := &Batch{BenchName: "x", Batches: 2, Seed: 2,
		Mix: []ClassSpec{{Name: "a", Count: 100, Work: 0.02}}}
	res2 := runWorkload(t, w2)
	tr := res2.Truth["a"]
	if math.Abs(tr.TrueMean-0.02)/0.02 > 0.05 {
		t.Fatalf("noisy mean %v too far from 0.02", tr.TrueMean)
	}
}

func TestBatchSpawnOrder(t *testing.T) {
	for _, order := range []SpawnOrder{OrderLightFirst, OrderHeavyFirst} {
		w := &Batch{BenchName: "x", Batches: 1, Seed: 3, Noise: -1, Order: order,
			Mix: []ClassSpec{
				{Name: "big", Count: 3, Work: 0.05},
				{Name: "small", Count: 3, Work: 0.01},
			}}
		w.defaults()
		root := w.buildBatch(0)
		prev := root.Spawns[0].Child.Work
		for _, sp := range root.Spawns[1:] {
			if order == OrderLightFirst && sp.Child.Work < prev-1e-12 {
				t.Fatalf("light-first order violated")
			}
			if order == OrderHeavyFirst && sp.Child.Work > prev+1e-12 {
				t.Fatalf("heavy-first order violated")
			}
			prev = sp.Child.Work
		}
	}
}

func TestGAAlphaMix(t *testing.T) {
	for _, alpha := range []int{0, 8, 42} {
		mix, err := GAAlphaMix(alpha, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, c := range mix {
			n += c.Count
		}
		if n != 128 {
			t.Fatalf("alpha=%d: %d tasks", alpha, n)
		}
	}
	// α=44 clamps the light class at zero.
	mix, err := GAAlphaMix(44, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if mix[3].Count != 0 {
		t.Fatalf("alpha=44 light count=%d", mix[3].Count)
	}
	if _, err := GAAlphaMix(-1, 0.01); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := GAAlphaMix(45, 0.01); err == nil {
		t.Fatal("alpha=45 accepted")
	}
	if _, err := GAAlpha(50, 1); err == nil {
		t.Fatal("GAAlpha(50) accepted")
	}
}

func TestPipelineRunsAllStages(t *testing.T) {
	w := Ferret(4)
	w.WaveItems = 16
	w.Waves = 3
	res := runWorkload(t, w)
	want := 16 * 3 * 4 // items × waves × stages
	if res.TasksDone != want {
		t.Fatalf("TasksDone=%d want %d", res.TasksDone, want)
	}
	// Every stage class appears.
	for _, st := range w.Stages {
		if _, ok := res.Truth[st.Name]; !ok {
			t.Fatalf("stage %s never ran", st.Name)
		}
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.WorkPerItem() <= 0 {
		t.Fatal("WorkPerItem")
	}
}

func TestPipelineStagesChainInOrder(t *testing.T) {
	w := Ferret(5)
	w.WaveItems = 4
	w.Waves = 1
	res := runWorkload(t, w)
	// Stage k tasks cannot start before any stage k-1 task has finished
	// for the same item; weaker global check: the first segment of stage
	// i+1 starts after the first completion of stage i.
	firstEnd := map[string]float64{}
	firstStart := map[string]float64{}
	for _, tk := range res.Completed {
		if _, ok := firstEnd[tk.Class]; !ok || tk.EndT < firstEnd[tk.Class] {
			firstEnd[tk.Class] = tk.EndT
		}
		if _, ok := firstStart[tk.Class]; !ok || tk.StartT < firstStart[tk.Class] {
			firstStart[tk.Class] = tk.StartT
		}
	}
	for i := 1; i < len(w.Stages); i++ {
		prev, cur := w.Stages[i-1].Name, w.Stages[i].Name
		if firstStart[cur] < firstEnd[prev]-1e-9 {
			t.Fatalf("stage %s started before %s finished", cur, prev)
		}
	}
}

func TestPhaseChangeFlipsMix(t *testing.T) {
	w := PhaseChange(4, 7)
	res := runWorkload(t, w)
	if res.TasksDone != 4*129 {
		t.Fatalf("TasksDone=%d", res.TasksDone)
	}
	// Both classes were heavy in one phase and light in the other, so
	// their overall means sit between the extremes.
	a := res.Truth["ph_a"]
	if a.TrueMean < 0.011 || a.TrueMean > 0.079 {
		t.Fatalf("ph_a mean %v does not reflect a phase flip", a.TrueMean)
	}
}

func TestBenchmarksList(t *testing.T) {
	ws := Benchmarks(1)
	if len(ws) != 9 {
		t.Fatalf("Benchmarks returned %d", len(ws))
	}
	for i, w := range ws {
		if w.Name() != BenchmarkNames[i] {
			t.Fatalf("order mismatch: %s vs %s", w.Name(), BenchmarkNames[i])
		}
	}
}

// Benchmarks builds its workloads in one slab; each must still equal what
// its own constructor builds, and own its Mix: OnBatchStart may rewrite or
// grow one, which must reach neither a second call's workloads nor the
// neighbouring workload of the same call.
func TestBenchmarksOwnTheirMixes(t *testing.T) {
	a, b := Benchmarks(7), Benchmarks(7)
	for i, w := range a {
		ab, ok := w.(*Batch)
		if !ok {
			continue
		}
		want := ByName(BenchmarkNames[i], 7).(*Batch)
		if ab.BenchName != want.BenchName || ab.Seed != 7 || ab.Noise != want.Noise || ab.Order != want.Order || !slices.Equal(ab.Mix, want.Mix) {
			t.Fatalf("%s from Benchmarks differs from its constructor:\n%+v\n%+v", want.BenchName, ab, want)
		}
		bb := b[i].(*Batch)
		if &ab.Mix[0] == &bb.Mix[0] {
			t.Fatalf("%s: two Benchmarks calls share Mix backing memory", ab.BenchName)
		}
		ab.Mix[0].Count = -1
		ab.Mix = append(ab.Mix, ClassSpec{Name: "extra", Count: 1, Work: 1})
	}
	for i, w := range Benchmarks(7) {
		if fresh, ok := w.(*Batch); ok {
			if !slices.Equal(b[i].(*Batch).Mix, fresh.Mix) {
				t.Fatalf("%s: mutating one call's Mix changed another's", fresh.BenchName)
			}
			if ab := a[i].(*Batch); !slices.Equal(ab.Mix[1:len(ab.Mix)-1], fresh.Mix[1:]) {
				t.Fatalf("%s: an append to a neighbour's Mix overwrote this one", fresh.BenchName)
			}
		}
	}
	af, bf := a[4].(*Pipeline), b[4].(*Pipeline)
	if &af.Stages[0] == &bf.Stages[0] || !slices.Equal(af.Stages, Ferret(7).Stages) {
		t.Fatal("Ferret stages shared between calls or different from the constructor's")
	}
}

func TestMixedMemoryWorkload(t *testing.T) {
	w := MixedMemory(5)
	w.Batches = 2
	if w.TasksPerBatch() != 128 {
		t.Fatalf("tasks per batch %d", w.TasksPerBatch())
	}
	res := runWorkload(t, w)
	if res.TasksDone != 2*129 {
		t.Fatalf("TasksDone=%d", res.TasksDone)
	}
	// Memory-bound tasks carry their MemFrac/CMPI through to execution.
	memSeen := false
	for _, tk := range res.Completed {
		if tk.Class == "mem_chase" {
			memSeen = true
			if tk.MemFrac != 0.9 || tk.CMPI != 0.3 {
				t.Fatalf("mem task lost attributes: %+v", tk)
			}
		}
	}
	if !memSeen {
		t.Fatal("no mem_chase tasks")
	}
}

func TestReplayParse(t *testing.T) {
	csv := `batch,class,work,memfrac,cmpi
0,hash,0.01
0,compress,0.05,0,0
0,scan,0.02,0.9,0.25
1,hash,0.01
# comment line

1,compress,0.04`
	r, err := ParseReplay("mytrace", csv)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Batches) != 2 || len(r.Batches[0]) != 3 || len(r.Batches[1]) != 2 {
		t.Fatalf("batches: %+v", r.Batches)
	}
	if r.Batches[0][2].MemFrac != 0.9 || r.Batches[0][2].CMPI != 0.25 {
		t.Fatalf("mem columns: %+v", r.Batches[0][2])
	}
	if r.TotalTasks() != 5 {
		t.Fatalf("TotalTasks=%d", r.TotalTasks())
	}
	res := runWorkload(t, r)
	if res.TasksDone != 5+2 { // leaves + 2 roots
		t.Fatalf("TasksDone=%d", res.TasksDone)
	}
	if _, ok := res.Truth["scan"]; !ok {
		t.Fatal("scan class missing")
	}
}

func TestReplayParseErrors(t *testing.T) {
	cases := []string{
		"",                   // no tasks
		"0,onlytwo",          // too few fields
		"x,hash,0.01",        // bad batch
		"-1,hash,0.01",       // negative batch
		"0,hash,zz",          // bad work
		"0,,0.01",            // empty class
		"0,hash,0.01,2",      // memfrac out of range
		"0,hash,0.01,0.5,xx", // bad cmpi
		"2,hash,0.01",        // batches 0 and 1 empty
	}
	for _, c := range cases {
		if _, err := ParseReplay("bad", c); err == nil {
			t.Fatalf("accepted invalid trace %q", c)
		}
	}
}
