package sched

import (
	"testing"

	"wats/internal/amc"
	"wats/internal/sim"
	"wats/internal/stats"
	"wats/internal/workload"
)

// TestMemAwarePlacement: under WATS-Mem, memory-bound classes execute
// predominantly on the slowest c-group once their CMPI is known.
func TestMemAwarePlacement(t *testing.T) {
	p := NewWATSMem()
	w := workload.MixedMemory(3)
	w.Batches = 8
	res, err := sim.New(amc.AMC5, p, sim.Config{Seed: 3, CollectTasks: true}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	var memSlow, memAll, cpuSlow, cpuAll float64
	for _, tk := range res.Completed {
		slow := amc.AMC5.GroupOf(tk.LastCore) == amc.AMC5.K()-1
		switch {
		case tk.MemFrac > 0:
			memAll += tk.Work
			if slow {
				memSlow += tk.Work
			}
		case tk.Class != "main":
			cpuAll += tk.Work
			if slow {
				cpuSlow += tk.Work
			}
		}
	}
	// Fast cores still mop up memory-bound tasks once their own cluster
	// drains (work conservation), so the share is well below 100%; the
	// invariant is that memory-bound work is far more slow-core-bound
	// than CPU-bound work.
	if memSlow/memAll < 0.4 {
		t.Fatalf("only %.0f%% of memory-bound work on slow cores", 100*memSlow/memAll)
	}
	if memSlow/memAll < cpuSlow/cpuAll+0.2 {
		t.Fatalf("memory-bound work (%.0f%% slow) not clearly more slow-core-bound than cpu-bound (%.0f%%)",
			100*memSlow/memAll, 100*cpuSlow/cpuAll)
	}
	// The registry learned the CMPI averages.
	cl, ok := p.Allocator().Registry().Lookup("mem_chase")
	if !ok || cl.AvgCMPI < 0.2 {
		t.Fatalf("CMPI not learned: %+v", cl)
	}
}

// TestMemAwareBeatsBlindWATS: on the mixed workload the CMPI-aware
// variant outperforms plain WATS, which wastes fast cores on stalls.
func TestMemAwareBeatsBlindWATS(t *testing.T) {
	run := func(mk func() *WATS) float64 {
		var s stats.Sample
		for seed := uint64(1); seed <= 3; seed++ {
			w := workload.MixedMemory(seed)
			w.Batches = 10
			res, err := sim.New(amc.AMC5, mk(), sim.Config{Seed: seed}).Run(w)
			if err != nil {
				t.Fatal(err)
			}
			s.Add(res.Makespan)
		}
		return s.Mean()
	}
	blind := run(NewWATS)
	aware := run(NewWATSMem)
	t.Logf("blind=%v aware=%v", blind, aware)
	if aware >= blind {
		t.Fatalf("memory-aware WATS (%v) did not beat blind WATS (%v)", aware, blind)
	}
}

// TestMemFracTiming: the engine's §IV-E timing model — a fully
// memory-bound task takes the same time on every core.
func TestMemFracTiming(t *testing.T) {
	// One fast and one slow core; two identical memory-bound tasks must
	// finish at the same virtual time on either core.
	arch := amc.MustNew("2c", amc.CGroup{Freq: 2, N: 1}, amc.CGroup{Freq: 1, N: 1})
	w := &workload.Batch{BenchName: "m", Batches: 1, Noise: -1, Seed: 1,
		Mix: []workload.ClassSpec{{Name: "m", Count: 2, Work: 0.1, MemFrac: 1, CMPI: 1}}}
	res, err := sim.New(arch, MustNew(KindPFT), sim.Config{Seed: 1, CollectTasks: true}).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range res.Completed {
		if tk.Class != "m" {
			continue
		}
		d := tk.EndT - tk.StartT
		if d < 0.099 || d > 0.101 {
			t.Fatalf("memory-bound task took %v on core %d, want ~0.1 regardless of speed",
				d, tk.LastCore)
		}
	}
}
