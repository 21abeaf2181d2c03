// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§IV), plus microbenchmarks of the scheduler's hot
// paths. Each figure benchmark runs the corresponding experiment driver
// (scaled down to one seed and fewer batches so `go test -bench=.`
// completes quickly) and reports the headline ratio the paper's figure
// conveys as a custom metric. The full-size regeneration is
// `go run ./cmd/watsbench -experiment all -seeds 10`; EXPERIMENTS.md
// records those results against the paper.
package wats_test

import (
	"testing"

	"wats"
	"wats/internal/amc"
	"wats/internal/experiments"
	"wats/internal/history"
	"wats/internal/rng"
	"wats/internal/sched"
	"wats/internal/sim"
	"wats/internal/task"
	"wats/internal/workload"
)

func benchOpts() experiments.Options {
	return experiments.Options{Seeds: []uint64{1}, Batches: 3}
}

// BenchmarkTable1 regenerates Table I (preference lists).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2 regenerates Table II (the emulated AMC architectures).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkMotivation regenerates the §II-A motivating example (Fig. 1):
// optimal vs random vs snatch-rescued makespans.
func BenchmarkMotivation(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Motivation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		gain = r.Simulated["Cilk"] / r.Simulated["WATS"]
	}
	b.ReportMetric(gain, "cilk/wats")
}

// BenchmarkFig6 regenerates Fig. 6 for one architecture per sub-benchmark
// (normalized execution time of the nine benchmarks under the four
// schedulers) and reports the mean WATS-vs-Cilk ratio.
func BenchmarkFig6(b *testing.B) {
	for _, arch := range []*amc.Arch{amc.AMC1, amc.AMC2, amc.AMC5} {
		b.Run(arch.Name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				grids, err := experiments.Fig6(benchOpts(), arch)
				if err != nil {
					b.Fatal(err)
				}
				g := grids[0]
				var sum float64
				for _, row := range g.RowLabel {
					c, _ := g.At(row, "WATS")
					sum += c.Mean
				}
				mean = sum / float64(len(g.RowLabel))
			}
			b.ReportMetric(mean, "wats/cilk")
		})
	}
}

// BenchmarkFig7 regenerates Fig. 7 (GA on all seven architectures) and
// reports WATS's AMC6-vs-AMC7 ratio (the paper's flat-scaling claim).
func BenchmarkFig7(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		a6, _ := g.At("AMC 6", "WATS")
		a7, _ := g.At("AMC 7", "WATS")
		ratio = a6.Mean / a7.Mean
	}
	b.ReportMetric(ratio, "amc6/amc7")
}

// BenchmarkFig8 regenerates Fig. 8 (the α-parameterized GA sweep on
// AMC 5) and reports WATS's gain at the lightest non-trivial point.
func BenchmarkFig8(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		g, err := experiments.Fig8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		c, _ := g.At("4", "Cilk")
		w, _ := g.At("4", "WATS")
		gain = c.Mean / w.Mean
	}
	b.ReportMetric(gain, "cilk/wats@a4")
}

// BenchmarkFig9 regenerates Fig. 9 (the preference-stealing ablation) and
// reports how much preference stealing buys over the static allocation.
func BenchmarkFig9(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		g, err := experiments.Fig9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		np, _ := g.At("AMC 2", "WATS-NP")
		w, _ := g.At("AMC 2", "WATS")
		ratio = np.Mean / w.Mean
	}
	b.ReportMetric(ratio, "np/wats")
}

// BenchmarkFig10 regenerates Fig. 10 (the snatching ablation) and reports
// the mean WATS-TS-vs-WATS ratio (≥1 means snatching does not pay).
func BenchmarkFig10(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		g, err := experiments.Fig10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, row := range g.RowLabel {
			c, _ := g.At(row, "WATS-TS")
			sum += c.Mean
		}
		mean = sum / float64(len(g.RowLabel))
	}
	b.ReportMetric(mean, "ts/wats")
}

// BenchmarkAblations runs the extension studies (partition rule, spawn
// discipline, helper cadence).
func BenchmarkAblations(b *testing.B) {
	o := benchOpts()
	o.Batches = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablations(o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks of the scheduler's building blocks ---

// BenchmarkSimGrid walks the grid the repository benchmark's sim_fig6
// workload times (bench/sim.go): 3 machines × 4 schedulers × the 9
// Table III benchmarks, one op = the 108 Simulate calls of one round.
func BenchmarkSimGrid(b *testing.B) {
	b.ReportAllocs()
	runs := 0
	for i := 0; i < b.N; i++ {
		for _, arch := range []*wats.Arch{wats.AMC1, wats.AMC2, wats.AMC5} {
			for _, k := range []wats.Kind{wats.Cilk, wats.PFT, wats.RTS, wats.WATS} {
				for _, w := range wats.Benchmarks(1) {
					if _, err := wats.Simulate(arch, k, w, wats.Config{Seed: uint64(1000 + i)}); err != nil {
						b.Fatal(err)
					}
					runs++
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(runs), "ns/simulate")
}

// BenchmarkSimulatorThroughput measures simulated tasks per second of
// wall time for a full WATS run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := workload.GA(uint64(i))
		w.Batches = 5
		res, err := sim.New(amc.AMC2, sched.NewWATS(), sim.Config{Seed: uint64(i)}).Run(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.TasksDone), "tasks/run")
		}
	}
}

// BenchmarkPolicies compares the per-run cost of each policy on the
// simulator (scheduling overhead, not simulated time).
func BenchmarkPolicies(b *testing.B) {
	for _, k := range []wats.Kind{wats.Cilk, wats.PFT, wats.RTS, wats.WATS, wats.WATSTS} {
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := workload.GA(1)
				w.Batches = 3
				if _, err := wats.Simulate(wats.AMC2, k, w, wats.Config{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm1 measures the static allocation itself (the helper
// thread's per-tick work).
func BenchmarkAlgorithm1(b *testing.B) {
	r := rng.New(1)
	weights := make([]float64, 64)
	for i := range weights {
		weights[i] = r.Float64() * 100
	}
	for i := 1; i < len(weights); i++ { // descending
		if weights[i] > weights[i-1] {
			weights[i], weights[i-1] = weights[i-1], weights[i]
		}
	}
	b.Run("literal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			history.Partition(weights, amc.AMC2)
		}
	})
	b.Run("anchored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			history.PartitionAnchored(weights, amc.AMC2)
		}
	})
}

// BenchmarkRegistryObserve measures Algorithm 2's per-completion cost.
func BenchmarkRegistryObserve(b *testing.B) {
	reg := task.NewRegistry()
	classes := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < b.N; i++ {
		reg.Observe(classes[i%len(classes)], float64(i%100))
	}
}

// BenchmarkReorganize measures a full helper-thread reorganization.
func BenchmarkReorganize(b *testing.B) {
	reg := task.NewRegistry()
	r := rng.New(2)
	for c := 0; c < 32; c++ {
		for n := 0; n < 10; n++ {
			reg.Observe(string(rune('a'+c)), r.Float64()*10)
		}
	}
	alloc := history.NewAllocator(reg, amc.AMC1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Observe("a", 1) // dirty the epoch so Reorganize rebuilds
		alloc.Reorganize()
	}
}
