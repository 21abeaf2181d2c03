package experiments

import (
	"fmt"

	"wats/internal/amc"
	"wats/internal/sched"
	"wats/internal/sim"
	"wats/internal/stats"
	"wats/internal/workload"
)

// Ablations runs the extension studies beyond the paper's figures (see
// DESIGN.md §5):
//
//  1. Partition rule: WATS with the literal Algorithm 1 greedy vs the
//     anchored (default) cut rule.
//  2. Spawn discipline: WATS with parent-first (default) vs child-first
//     spawning, quantifying the workload mis-measurement of §III-C.
//  3. Helper cadence: WATS with helper periods from 0.1 ms to 100 ms.
//  4. Memory-awareness (§IV-E): plain WATS vs the CMPI-aware variant on a
//     mixed CPU/memory-bound workload.
//  5. Phase-change adaptation (§III-A "timely update"): adaptive vs
//     frozen cluster maps vs an EWMA history on a workload whose class
//     workloads invert mid-run.
//  6. DVFS throttling (§I motivation): mid-run the fast c-group of AMC 5
//     thermally throttles from 2.5 to 1.3 GHz; schedulers must cope with
//     the machine becoming more asymmetric than the allocator believes.
//  7. Learning curve (§III-A): per-batch makespans of WATS vs Cilk on
//     SHA-1/AMC 5, showing the cold first batch and the convergence by
//     the second.
func Ablations(o Options) ([]*Grid, error) {
	o = o.withDefaults()
	var out []*Grid

	g1, err := ablationGrid(o, "Ablation — Algorithm 1 cut rule (GA, seconds)",
		[]namedWATS{
			{"anchored (default)", func() *sched.WATS { return sched.NewWATS() }},
			{"literal Alg.1", func() *sched.WATS {
				p := sched.NewWATS()
				p.LiteralPartition = true
				return p
			}},
		})
	if err != nil {
		return nil, err
	}
	out = append(out, g1)

	g2, err := ablationGrid(o, "Ablation — spawn discipline (GA, seconds)",
		[]namedWATS{
			{"parent-first (default)", func() *sched.WATS { return sched.NewWATS() }},
			{"child-first", func() *sched.WATS {
				p := sched.NewWATS()
				p.ChildFirstSpawn = true
				return p
			}},
		})
	if err != nil {
		return nil, err
	}
	out = append(out, g2)

	g3, err := helperPeriodGrid(o)
	if err != nil {
		return nil, err
	}
	out = append(out, g3)

	g4, err := variantGrid(o, "Ablation — memory-awareness §IV-E (MixedMem, seconds)",
		func(seed uint64) sim.Workload {
			w := workload.MixedMemory(seed)
			if o.Batches > 0 {
				w.Batches = o.Batches
			}
			return w
		},
		[]namedWATS{
			{"WATS (CMPI-blind)", func() *sched.WATS { return sched.NewWATS() }},
			{"WATS-Mem", func() *sched.WATS { return sched.NewWATSMem() }},
		})
	if err != nil {
		return nil, err
	}
	out = append(out, g4)

	g5, err := variantGrid(o, "Ablation — phase-change adaptation (PhaseChange, seconds)",
		func(seed uint64) sim.Workload { return workload.PhaseChange(16, seed) },
		[]namedWATS{
			{"adaptive (default)", func() *sched.WATS { return sched.NewWATS() }},
			{"frozen map", func() *sched.WATS {
				p := sched.NewWATS()
				p.FreezeAfterReorgs = 3
				return p
			}},
			{"EWMA history", func() *sched.WATS {
				p := sched.NewWATS()
				p.EWMAAlpha = 0.3
				return p
			}},
		})
	if err != nil {
		return nil, err
	}
	out = append(out, g5)

	o6 := o
	o6.Cfg = o.Cfg
	for core := 0; core < 8; core++ {
		o6.Cfg.DVFS = append(o6.Cfg.DVFS, sim.SpeedEvent{At: 2, Core: core, Freq: 1.3})
	}
	g6, err := o6.runGrid("Ablation — DVFS throttling (GA on AMC 5, fast group 2.5→1.3 GHz at t=2s, seconds)",
		[]*amc.Arch{amc.AMC5}, sched.FigureKinds, []string{"GA"})
	if err != nil {
		return nil, err
	}
	out = append(out, g6)

	g7, err := learningCurveGrid(o)
	if err != nil {
		return nil, err
	}
	out = append(out, g7)
	return out, nil
}

// learningCurveGrid reports per-batch makespans (batch index rows) for
// Cilk and WATS on SHA-1/AMC 5: WATS's first batch runs on an empty
// history and is slow; it converges by the second batch.
func learningCurveGrid(o Options) (*Grid, error) {
	const batches = 8
	kinds := []sched.Kind{sched.KindCilk, sched.KindWATS}
	g := &Grid{Title: "Ablation — history learning curve (SHA-1 on AMC 5, per-batch seconds)", RowName: "batch"}
	for _, k := range kinds {
		g.ColLabel = append(g.ColLabel, string(k))
	}
	samples := make([][]stats.Sample, batches)
	for b := range samples {
		samples[b] = make([]stats.Sample, len(kinds))
	}
	for ki, k := range kinds {
		for _, seed := range o.Seeds {
			w := workload.SHA1(seed)
			w.Batches = batches
			cfg := o.Cfg
			cfg.Seed = seed
			res, err := sim.New(amc.AMC5, sched.MustNew(k), cfg).Run(w)
			if err != nil {
				return nil, err
			}
			for b, ms := range res.BatchMakespans() {
				if b < batches {
					samples[b][ki].Add(ms)
				}
			}
		}
	}
	for b := 0; b < batches; b++ {
		g.RowLabel = append(g.RowLabel, fmt.Sprintf("%d", b+1))
		row := make([]Cell, len(kinds))
		for ki := range kinds {
			row[ki] = Cell{samples[b][ki].Mean(), samples[b][ki].Stddev()}
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

// variantGrid runs a workload factory under WATS variants on AMC 2/5.
func variantGrid(o Options, title string, mkW func(seed uint64) sim.Workload, variants []namedWATS) (*Grid, error) {
	archs := []*amc.Arch{amc.AMC2, amc.AMC5}
	g := &Grid{Title: title, RowName: "architecture"}
	for _, v := range variants {
		g.ColLabel = append(g.ColLabel, v.name)
	}
	for _, a := range archs {
		g.RowLabel = append(g.RowLabel, a.Name)
		row := make([]Cell, 0, len(variants))
		for _, v := range variants {
			var s stats.Sample
			for _, seed := range o.Seeds {
				p := v.mk()
				p.SetName(v.name)
				cfg := o.Cfg
				cfg.Seed = seed
				res, err := sim.New(a, p, cfg).Run(mkW(seed))
				if err != nil {
					return nil, err
				}
				s.Add(res.Makespan)
			}
			row = append(row, Cell{s.Mean(), s.Stddev()})
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

type namedWATS struct {
	name string
	mk   func() *sched.WATS
}

// ablationGrid runs GA on a subset of architectures under WATS variants.
func ablationGrid(o Options, title string, variants []namedWATS) (*Grid, error) {
	archs := []*amc.Arch{amc.AMC1, amc.AMC2, amc.AMC5}
	g := &Grid{Title: title, RowName: "architecture"}
	for _, v := range variants {
		g.ColLabel = append(g.ColLabel, v.name)
	}
	for _, a := range archs {
		g.RowLabel = append(g.RowLabel, a.Name)
		row := make([]Cell, 0, len(variants))
		for _, v := range variants {
			var s stats.Sample
			for _, seed := range o.Seeds {
				w := workload.GA(seed)
				if o.Batches > 0 {
					w.Batches = o.Batches
				}
				p := v.mk()
				p.SetName(v.name)
				cfg := o.Cfg
				cfg.Seed = seed
				res, err := sim.New(a, p, cfg).Run(w)
				if err != nil {
					return nil, err
				}
				s.Add(res.Makespan)
			}
			row = append(row, Cell{s.Mean(), s.Stddev()})
		}
		g.Cells = append(g.Cells, row)
	}
	return g, nil
}

// helperPeriodGrid sweeps the helper-thread cadence on AMC 2.
func helperPeriodGrid(o Options) (*Grid, error) {
	periods := []float64{1e-4, 1e-3, 1e-2, 1e-1}
	g := &Grid{Title: "Ablation — helper-thread period (GA on AMC 2, seconds)", RowName: "period"}
	g.ColLabel = []string{"WATS"}
	for _, hp := range periods {
		g.RowLabel = append(g.RowLabel, fmt.Sprintf("%.4gs", hp))
		var s stats.Sample
		for _, seed := range o.Seeds {
			w := workload.GA(seed)
			if o.Batches > 0 {
				w.Batches = o.Batches
			}
			cfg := o.Cfg
			cfg.Seed = seed
			cfg.HelperPeriod = hp
			res, err := sim.New(amc.AMC2, sched.NewWATS(), cfg).Run(w)
			if err != nil {
				return nil, err
			}
			s.Add(res.Makespan)
		}
		g.Cells = append(g.Cells, []Cell{{s.Mean(), s.Stddev()}})
	}
	return g, nil
}
