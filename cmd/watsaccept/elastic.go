package main

import (
	"fmt"
	"time"

	"wats/internal/amc"
	"wats/internal/harness"
	"wats/internal/runtime"
	"wats/internal/scale"
	"wats/internal/server"
)

// Scenario elastic: the autoscaled asymmetric pool against a fixed one
// provisioned for the peak (DESIGN.md §10, BENCH_elastic.json).
//
// Hypothesis: under a low/burst/low profile the fixed pool pays for peak
// capacity through both idle phases while the autoscaler only rents it
// for the burst, so the autoscaled pool holds the same steady-state tail
// on about half the worker-seconds.
//
// Varied: the pool — 16 fixed workers, or 2..16 under the controller.
//
// Controlled: the arrival schedule (one seed, open loop, 25/400/25 jobs/s
// over 3 s/4 s/3 s), 20 ms sleep-shaped jobs so capacity is the worker
// count, the 1:1 fast:slow ratio, one node, no gate.
//
// Gates: the autoscaler resized; both pools completed every job sent;
// the pool shrank back to its minimum; steady p99 (arrivals in the first
// second of a phase excluded — the grow ramp is in the overall p99, which
// the artifact also records) at most 2.0x the fixed pool's; worker-
// seconds at most 0.6x.
type elasticParams struct {
	JobMs           int
	Low, High       float64 // arrival rates, jobs/s
	LowDur, HighDur time.Duration
	Min, Max, Fixed int // autoscaled bounds, fixed pool size
	RampExclude     time.Duration
	Seed            uint64
}

var elastic = elasticParams{JobMs: 20, Low: 25, High: 400, LowDur: 3 * time.Second, HighDur: 4 * time.Second,
	Min: 2, Max: 16, Fixed: 16, RampExclude: time.Second, Seed: 1}

type poolResult struct {
	Pool          string  `json:"pool"` // "fixed" or "autoscaled"
	Workers       string  `json:"workers"`
	Sent          int     `json:"sent"`
	Completed     int     `json:"completed"`
	JobsPerSec    float64 `json:"jobs_per_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	SteadyP99Ms   float64 `json:"steady_p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	WorkerSeconds float64 `json:"worker_seconds"`
	EnergyJoules  float64 `json:"energy_joules"`
	Resizes       int     `json:"resizes"`
	FinalWorkers  int     `json:"final_workers"`
	Retired       int     `json:"retired_workers"`
}

type elasticReport struct {
	Benchmark          string     `json:"benchmark"`
	Generated          string     `json:"generated"`
	JobMs              int        `json:"job_ms"`
	Profile            string     `json:"profile"`
	Fixed              poolResult `json:"fixed"`
	Autoscaled         poolResult `json:"autoscaled"`
	SteadyP99Ratio     float64    `json:"steady_p99_ratio"`
	WorkerSecondsRatio float64    `json:"worker_seconds_ratio"`
}

func (p elasticParams) run(rep *harness.Report, check bool) (any, error) {
	r := &elasticReport{
		Benchmark:  "elastic-autoscale",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		JobMs:      p.JobMs,
		Profile:    fmt.Sprintf("%.0f:%v,%.0f:%v,%.0f:%v", p.Low, p.LowDur, p.High, p.HighDur, p.Low, p.LowDur),
		Fixed:      poolResult{Pool: "fixed", Workers: fmt.Sprint(p.Fixed)},
		Autoscaled: poolResult{Pool: "autoscaled", Workers: fmt.Sprintf("%d..%d", p.Min, p.Max)},
	}
	fmt.Printf("elastic: %dms jobs, profile %s, fixed %d vs autoscaled %d..%d\n", p.JobMs, r.Profile, p.Fixed, p.Min, p.Max)
	for _, pool := range []*poolResult{&r.Fixed, &r.Autoscaled} {
		if err := p.pool(rep, pool, pool == &r.Autoscaled); err != nil {
			return nil, fmt.Errorf("%s pool: %w", pool.Pool, err)
		}
		fmt.Printf("  %-10s  %7s workers  %6.0f jobs/s  p50 %6.2fms  p99 %7.2fms (steady %6.2fms)  %6.1f worker-s  %7.1f J  %d resizes\n",
			pool.Pool, pool.Workers, pool.JobsPerSec, pool.P50Ms, pool.P99Ms, pool.SteadyP99Ms, pool.WorkerSeconds, pool.EnergyJoules, pool.Resizes)
	}
	fixed, auto := r.Fixed, r.Autoscaled
	r.SteadyP99Ratio = harness.Round3(auto.SteadyP99Ms / fixed.SteadyP99Ms)
	r.WorkerSecondsRatio = harness.Round3(auto.WorkerSeconds / fixed.WorkerSeconds)
	fmt.Printf("  autoscaled / fixed: steady p99 %.2fx, worker-seconds %.2fx, energy %.2fx\n",
		r.SteadyP99Ratio, r.WorkerSecondsRatio, auto.EnergyJoules/fixed.EnergyJoules)

	if check {
		rep.Check(auto.Resizes > 0, "the autoscaler never resized")
		rep.Check(auto.Completed == auto.Sent && fixed.Completed == fixed.Sent,
			"lost jobs (fixed %d/%d, autoscaled %d/%d)", fixed.Completed, fixed.Sent, auto.Completed, auto.Sent)
		rep.Check(auto.FinalWorkers == p.Min, "pool did not shrink back (final %d, want %d)", auto.FinalWorkers, p.Min)
		rep.Check(r.SteadyP99Ratio <= 2.0, "steady p99 ratio %.2f > 2.0 (autoscaled %v vs fixed %v)",
			r.SteadyP99Ratio, auto.SteadyP99Ms, fixed.SteadyP99Ms)
		rep.Check(r.WorkerSecondsRatio <= 0.6, "worker-seconds ratio %.2f > 0.6", r.WorkerSecondsRatio)
	}
	return r, nil
}

// pool stands up one node, fixed or under the autoscaler, drives the
// low/high/low profile against it and fills res.
func (p elasticParams) pool(rep *harness.Report, res *poolResult, autoscale bool) error {
	arch := amc.MustNew("fixed", amc.CGroup{Freq: 2.0, N: p.Fixed / 2}, amc.CGroup{Freq: 0.8, N: p.Fixed - p.Fixed/2})
	if autoscale {
		// Start at the per-group floor; the controller grows it, keeping
		// the fixed pool's 1:1 fast:slow ratio.
		arch = amc.MustNew("elastic", amc.CGroup{Freq: 2.0, N: 1}, amc.CGroup{Freq: 0.8, N: 1})
	}
	pulse := server.Workload{Name: "pulse", Class: "pulse", Desc: "occupy one worker for params.n ms",
		Run: func(_ *runtime.Ctx, wp server.Params) (any, error) {
			time.Sleep(time.Duration(wp.N) * time.Millisecond)
			return "ok", nil
		}}
	c, err := harness.StartCluster([]harness.NodeConfig{{Arch: arch, MaxInflight: 1 << 13,
		Workloads: map[string]server.Workload{"pulse": pulse}}}, nil)
	if err != nil {
		return err
	}
	defer func() { rep.Fail(c.Close()...) }()
	rt := c.Nodes[0].RT

	var runner *scale.Runner
	if autoscale {
		// The phases last seconds, so holds and cooldown shrink with them
		// (watsd's defaults pace a long-lived service). The backlog trigger
		// alone stalls when arrivals exactly match capacity — the queue
		// random-walks instead of growing — so the rolling tail latency
		// forces the grow through that plateau.
		ctl, err := scale.NewController(scale.Config{
			Min: p.Min, Max: p.Max,
			Weights:    arch.Counts(),
			Freqs:      []float64{2.0, 0.8},
			Energy:     rt.EnergyModel(),
			GrowHold:   5 * time.Millisecond,
			ShrinkHold: 200 * time.Millisecond,
			Cooldown:   25 * time.Millisecond,
			LatencySLO: 4 * time.Duration(p.JobMs) * time.Millisecond,
		})
		if err != nil {
			return err
		}
		runner = scale.NewRunner(ctl, rt, 5*time.Millisecond, c.Nodes[0].Srv.Metrics().RecentP99Latency)
		runner.Start()
		defer runner.Stop()
	}

	// Worker-seconds: integrate the live worker count every 5 ms.
	stop, workerSeconds := make(chan struct{}), make(chan float64)
	go func() {
		var ws float64
		last := time.Now()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				ws += float64(rt.Workers()) * now.Sub(last).Seconds()
				last = now
			case <-stop:
				workerSeconds <- ws + float64(rt.Workers())*time.Since(last).Seconds()
				return
			}
		}
	}()

	body := []byte(fmt.Sprintf(`{"workload":"pulse","params":{"n":%d}}`, p.JobMs))
	low, high := harness.Phase{Dur: p.LowDur, Rates: []float64{p.Low}}, harness.Phase{Dur: p.HighDur, Rates: []float64{p.High}}
	arrivals := harness.Schedule(p.Seed, []harness.Stream{{Class: "pulse", Body: body}}, []harness.Phase{low, high, low}, p.RampExclude)
	start := time.Now()
	t := harness.Fold(c.OpenLoop(arrivals), nil)
	elapsed := time.Since(start)
	close(stop)

	res.Sent, res.Completed = t.Sent, t.OK
	res.JobsPerSec = harness.Round3(float64(t.OK) / elapsed.Seconds())
	res.P50Ms, res.P99Ms, res.SteadyP99Ms, res.MaxMs = t.P50Ms, t.P99Ms, t.SteadyP99Ms, t.MaxMs
	res.WorkerSeconds = harness.Round3(<-workerSeconds)
	res.EnergyJoules = harness.Round3(rt.EnergyJoules())
	res.FinalWorkers, res.Retired = rt.Workers(), rt.RetiredWorkers()
	if runner != nil {
		res.Resizes = runner.Resizes()
	}
	return nil
}
