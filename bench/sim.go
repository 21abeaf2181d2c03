package main

import (
	"fmt"
	"math"
	"time"

	"wats"
	"wats/internal/stats"
)

var (
	simArchs = []*wats.Arch{wats.AMC1, wats.AMC2, wats.AMC5}
	simKinds = []wats.Kind{wats.Cilk, wats.PFT, wats.RTS, wats.WATS}
)

// simQualityRounds is the fixed part of the grid the quality metrics and
// exact counts are taken over: ten simulator seeds, as in the paper's
// Fig. 6 runs. A full-length run always completes them, however slow
// the machine, so those numbers repeat exactly for a given -seed.
const simQualityRounds = 10

// simRun is one Simulate call's outcome.
type simRun struct {
	makespan, lowerBound                     float64
	tasksDone, steals, snatches, helperTicks int
	ns                                       int64
}

// simRound runs the grid over archs once — every scheduler and Table III
// benchmark on each — with simulator seed cfgSeed, in a fixed order.
func simRound(archs []*wats.Arch, seed, cfgSeed uint64) ([]simRun, error) {
	runs := make([]simRun, 0, len(archs)*len(simKinds)*9)
	for _, arch := range archs {
		for _, kind := range simKinds {
			// Workloads carry batch state, so each run gets fresh ones.
			for _, w := range wats.Benchmarks(seed) {
				t0 := time.Now()
				res, err := wats.Simulate(arch, kind, w, wats.Config{Seed: cfgSeed})
				if err != nil {
					return nil, fmt.Errorf("simulate %s/%s/%s: %w", arch.Name, kind, w.Name(), err)
				}
				runs = append(runs, simRun{res.Makespan, res.LowerBound,
					res.TasksDone, res.Steals, res.Snatches, res.HelperTicks, int64(time.Since(t0))})
			}
		}
	}
	return runs, nil
}

// simCell indexes a round's runs: architecture a, scheduler k, benchmark b.
func simCell(a, k, b int) int { return (a*len(simKinds)+k)*9 + b }

// runSimFig6 is the paper's own evaluation as a throughput workload: no
// network and no serving code, only the simulator, the schedulers and
// the history allocator. One round of the grid is one window, so every
// window does identical work and the windows compare like with like.
func runSimFig6(e *env) error {
	// Set-up here is building the inputs; there is no stack to bring up.
	var setups []float64
	for i := 0; i < 4*setupRepeats; i++ {
		t0 := time.Now()
		for range simArchs {
			for range simKinds {
				_ = wats.Benchmarks(e.seed)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.ms.put("setup_s", stats.Min(setups), "s", len(setups))

	cfgSeed := func(round int) uint64 { return e.seed*1000 + uint64(round) }
	if _, err := simRound(simArchs[:1], e.seed, cfgSeed(0)); err != nil { // warm-up
		return err
	}
	e.startProc(nil)
	minRounds := min(simQualityRounds, max(1, int(e.seconds)))
	end := time.Now().Add(time.Duration(measuredWindows) * e.win)
	var rounds [][]simRun
	var rate, taskRate, p50, mean, p95, cpu, allocs []float64
	for len(rounds) < minRounds || time.Now().Before(end) {
		u0, t0 := readUsage(), time.Now()
		runs, err := simRound(simArchs, e.seed, cfgSeed(len(rounds)))
		if err != nil {
			return err
		}
		wall, u1 := time.Since(t0).Seconds(), readUsage()
		rounds = append(rounds, runs)
		lat := make([]float64, len(runs))
		tasks := 0
		for i, r := range runs {
			lat[i] = nsToMs(r.ns)
			tasks += r.tasksDone
		}
		n := float64(len(runs))
		rate = append(rate, n/wall)
		taskRate = append(taskRate, float64(tasks)/wall)
		p50 = append(p50, stats.Quantile(lat, 0.50))
		mean = append(mean, stats.Mean(lat))
		p95 = append(p95, stats.Quantile(lat, 0.95))
		cpu = append(cpu, (u1.cpuUS-u0.cpuUS)/n)
		allocs = append(allocs, (u1.allocs-u0.allocs)/n)
	}
	total := len(rounds) * len(rounds[0])
	e.ms.putWindows("jobs_per_s", rate, "1/s", total, true)
	e.ms.putWindows("lat_p50_ms", p50, "ms", total, false)
	e.ms.putWindows("lat_mean_ms", mean, "ms", total, false)
	e.ms.putWindows("lat_p95_ms", p95, "ms", total, false)
	e.ms.putWindows("cpu_us_per_job", cpu, "us", total, false)
	e.ms.putWindows("allocs_per_job", allocs, "1", total, false)
	e.ms.putWindows("sim_tasks_per_s", taskRate, "1/s", total, true)

	quality := rounds[:min(len(rounds), simQualityRounds)]
	var vsCilk, vsBound, runNs []float64
	var tasks, steals, snatches, ticks int
	iWATS, iCilk := len(simKinds)-1, 0
	for _, runs := range quality {
		for a := range simArchs {
			for b := 0; b < 9; b++ {
				w := runs[simCell(a, iWATS, b)]
				vsCilk = append(vsCilk, w.makespan/runs[simCell(a, iCilk, b)].makespan)
				vsBound = append(vsBound, w.makespan/w.lowerBound)
			}
		}
		for _, r := range runs {
			runNs = append(runNs, float64(r.ns))
			tasks += r.tasksDone
			steals += r.steals
			snatches += r.snatches
			ticks += r.helperTicks
		}
	}
	n := len(runNs)
	e.ms.put("wats_vs_cilk_makespan", geomean(vsCilk), "ratio", len(vsCilk))
	e.ms.put("wats_vs_lower_bound", geomean(vsBound), "ratio", len(vsBound))
	e.ms.put("sim.run_ns", median(runNs), "ns", n)
	e.ms.put("sim.tasks_done", float64(tasks), "count", n)
	e.ms.put("sim.steals", float64(steals), "count", n)
	e.ms.put("sim.snatches", float64(snatches), "count", n)
	e.ms.put("sim.helper_ticks", float64(ticks), "count", n)
	e.check(geomean(vsCilk) < 1, "WATS does not beat Cilk: geomean makespan ratio %.4f", geomean(vsCilk))

	// Same seed, same bytes: a second pass over the first architecture's
	// part of round 0 must reproduce every makespan bit for bit.
	again, err := simRound(simArchs[:1], e.seed, cfgSeed(0))
	if err != nil {
		return err
	}
	for i, r := range again {
		if math.Float64bits(r.makespan) != math.Float64bits(rounds[0][i].makespan) {
			e.check(false, "run %d of round 0 is not deterministic: makespan %v, then %v", i, rounds[0][i].makespan, r.makespan)
			break
		}
	}
	e.finish(tally{ok: int64(total)})
	if e.traced {
		e.microHistory()
	}
	return nil
}
