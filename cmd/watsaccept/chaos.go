package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"wats/internal/amc"
	"wats/internal/client"
	"wats/internal/fault"
	"wats/internal/gate"
	"wats/internal/harness"
	"wats/internal/obs"
	"wats/internal/runtime"
	"wats/internal/server"
	"wats/internal/trace"
)

// Scenario chaos: gray failure, with the gate's defences off and on
// (DESIGN.md §14, BENCH_chaos.json).
//
// Hypothesis: one of three identical backends turns gray mid-run — every
// job request is held 240 ms before admission and its response dripped
// in 32-byte chunks, while /v1/readyz stays crisp and self-reported
// exec_ms stays normal, so readiness polls, the breaker and the TC table
// all call the node fine. Fail-stop machinery cannot see it; hedged
// dispatch, a retry budget and latency-outlier ejection cut the degraded
// tail to at most half without taxing the healthy path, without running
// any acknowledged job twice, and within the budget.
//
// Varied: the defences — off, or hedging + retry budget + ejection on.
//
// Controlled: the arrival schedule (one seed, open loop, 150 jobs/s for
// 3 s), 12 ms cancellation-aware jobs, the fault plan (same seed, flap
// window opens at 1 s, armed at load start), round-robin routing so the
// victim gets a deterministic third of the primaries whatever scorer
// ties would do, poll interval, breaker.
//
// Gates, both runs: zero failed; gate 200s = jobs the backends completed
// = full-body executions in the decision ledger; the fault window fired
// and the live fault counts equal the plan replayed over the assigned
// indices. Across runs: healthy-window p50 at most 1.2x + 2 ms and p99
// at most 1.2x + 50 ms with defences on; undefended degraded p99 at
// least 2x the job (or the scenario shows no damage); defended degraded
// p99 at most 0.5x undefended; it hedged; the victim was ejected and
// probed; hedges + re-route launches within ratio x primaries + burst.
type chaosParams struct {
	WorkMs      int
	Rate        float64 // jobs/s
	Dur, GrayAt time.Duration
	GrayLatency time.Duration // held before admission on the victim
	DripDelay   time.Duration // between 32-byte chunks of its responses
	HedgeMin    time.Duration // defended run: hedge delay floor
	// Burst is sized so the hedge path cannot starve even if ejection is
	// slow to fire: 2 s of gray at 150/s sends ~100 requests to the
	// victim and earns ~30 tokens back.
	BudgetRatio, BudgetBurst float64
	HealthyTax, Margin       float64
	Seed                     uint64
}

var chaos = chaosParams{WorkMs: 12, Rate: 150, Dur: 3 * time.Second, GrayAt: time.Second,
	GrayLatency: 240 * time.Millisecond, DripDelay: 60 * time.Millisecond, HedgeMin: 50 * time.Millisecond,
	BudgetRatio: 0.1, BudgetBurst: 128, HealthyTax: 1.2, Margin: 0.5, Seed: 1}

// gray is the victim's fault schedule. Latency strictly before admission
// is what keeps cancelled hedge losers un-admitted (DESIGN.md §14).
func (p chaosParams) gray() fault.Spec {
	return fault.Spec{
		Seed:        p.Seed,
		LatencyRate: 1, Latency: p.GrayLatency,
		DripRate: 1, DripDelay: p.DripDelay, DripChunk: 32,
		FlapAfter: p.GrayAt, FlapDur: p.Dur - p.GrayAt,
	}
}

type chaosRun struct {
	Defended     bool              `json:"defended"`
	Sent         int               `json:"sent"`
	OK           int               `json:"ok"`
	Failed       int               `json:"failed"`
	Healthy      harness.Window    `json:"healthy_window"`
	Degraded     harness.Window    `json:"degraded_window"`
	Defense      gate.DefenseStats `json:"defense"`
	Ejections    uint64            `json:"victim_ejections"`
	Probes       uint64            `json:"victim_probes"`
	Completed    uint64            `json:"backend_completed_total"`
	LedgerExec   int               `json:"ledger_full_executions"`
	LedgerCancel int               `json:"ledger_cancelled_tasks"`
	FaultsLive   fault.Counts      `json:"netfault_live"`
	FaultsPlan   fault.Counts      `json:"netfault_planned"`
	Assigned     uint64            `json:"netfault_assigned"`
	Routed       map[string]uint64 `json:"routed_by_backend"`
	EjectionsAll map[string]uint64 `json:"ejections_by_backend"`
	BreakerOpens int64             `json:"breaker_opens"`
}

type chaosReport struct {
	Benchmark   string   `json:"benchmark"`
	Generated   string   `json:"generated"`
	WorkMS      int      `json:"work_ms"`
	Rate        float64  `json:"rate_per_sec"`
	GraySpec    string   `json:"gray_netfault_spec"`
	Off         chaosRun `json:"defenses_off"`
	On          chaosRun `json:"defenses_on"`
	HealthyTax  float64  `json:"healthy_p99_on_vs_off"`
	DegradedWin float64  `json:"degraded_p99_on_vs_off"`
}

func (p chaosParams) run(rep *harness.Report, check bool) (any, error) {
	r := &chaosReport{
		Benchmark: "gate-gray-failure",
		Generated: time.Now().UTC().Format(time.RFC3339),
		WorkMS:    p.WorkMs, Rate: p.Rate,
		GraySpec: p.gray().String(),
		On:       chaosRun{Defended: true},
	}
	fmt.Printf("chaos: %dms jobs at %g/s over 3 nodes; victim flaps gray [%v, %v) with %q\n",
		p.WorkMs, p.Rate, p.GrayAt, p.Dur, r.GraySpec)
	for _, res := range []*chaosRun{&r.Off, &r.On} {
		if err := p.one(rep, res); err != nil {
			return nil, fmt.Errorf("defended=%v run: %w", res.Defended, err)
		}
		fmt.Printf("  defended=%-5v healthy p99 %7.2fms  degraded p99 %7.2fms  (%d sent, %d ok; %d hedges, %d wins, %d reroutes, %d denied; victim ejected %dx, probed %dx; %d breaker opens)\n",
			res.Defended, res.Healthy.P99Ms, res.Degraded.P99Ms, res.Sent, res.OK,
			res.Defense.Hedges, res.Defense.HedgeWins, res.Defense.RerouteLaunches, res.Defense.BudgetDenied, res.Ejections, res.Probes, res.BreakerOpens)
	}
	if r.Off.Healthy.P99Ms > 0 {
		r.HealthyTax = harness.Round3(r.On.Healthy.P99Ms / r.Off.Healthy.P99Ms)
	}
	if r.Off.Degraded.P99Ms > 0 {
		r.DegradedWin = harness.Round3(r.On.Degraded.P99Ms / r.Off.Degraded.P99Ms)
	}
	fmt.Printf("  defenses on / off: healthy p99 %.2fx, degraded p99 %.2fx\n", r.HealthyTax, r.DegradedWin)
	if check {
		p.check(rep, r)
	}
	return r, nil
}

func (p chaosParams) check(rep *harness.Report, r *chaosReport) {
	for _, res := range []*chaosRun{&r.Off, &r.On} {
		rep.Check(res.Failed == 0, "defended=%v run failed %d requests (gray must degrade, not break)", res.Defended, res.Failed)
		// At most once: a hedge loser that ran anyway would show as
		// ledger > ok.
		rep.Check(uint64(res.OK) == res.Completed, "defended=%v: %d gate 200s vs %d backend-completed jobs", res.Defended, res.OK, res.Completed)
		rep.Check(res.LedgerExec == res.OK, "defended=%v: %d full executions in the ledger vs %d gate 200s", res.Defended, res.LedgerExec, res.OK)
		rep.Check(res.Assigned > 0, "defended=%v: the fault window never fired", res.Defended)
		rep.Check(res.FaultsLive == res.FaultsPlan, "defended=%v: live faults %+v != planned %+v", res.Defended, res.FaultsLive, res.FaultsPlan)
	}
	// Healthy-window tax: a tight gate on the median (stable even with
	// ~140 samples) plus a loose absolute slack on the p99. The p99 of a
	// small window is two samples — scheduler noise on a CI box — but a
	// systematic hedge tax (cold-start hedges firing on every request)
	// would shift it by the 250ms MaxDelay, far past the slack.
	const p50Slack, p99Slack = 2.0, 50.0 // ms
	rep.Check(r.On.Healthy.P50Ms <= p.HealthyTax*r.Off.Healthy.P50Ms+p50Slack,
		"healthy-window p50 %.2fms with defenses on vs %.2fms off (want <= %.1fx + %.0fms)",
		r.On.Healthy.P50Ms, r.Off.Healthy.P50Ms, p.HealthyTax, p50Slack)
	rep.Check(r.On.Healthy.P99Ms <= p.HealthyTax*r.Off.Healthy.P99Ms+p99Slack,
		"healthy-window p99 %.2fms with defenses on vs %.2fms off (want <= %.1fx + %.0fms)",
		r.On.Healthy.P99Ms, r.Off.Healthy.P99Ms, p.HealthyTax, p99Slack)
	rep.Check(r.Off.Degraded.P99Ms >= float64(p.WorkMs)*2,
		"defenses-off degraded p99 %.2fms shows no gray damage — the scenario is broken", r.Off.Degraded.P99Ms)
	rep.Check(r.On.Degraded.P99Ms <= p.Margin*r.Off.Degraded.P99Ms,
		"degraded-window p99 %.2fms with defenses on vs %.2fms off (want <= %.2fx)",
		r.On.Degraded.P99Ms, r.Off.Degraded.P99Ms, p.Margin)
	d := r.On.Defense
	rep.Check(d.Hedges > 0, "the defended run never hedged")
	rep.Check(r.On.Ejections > 0, "the victim was never ejected")
	rep.Check(r.On.Probes > 0, "the ejected victim was never probed")
	allowed := uint64(p.BudgetRatio*float64(d.Primaries) + p.BudgetBurst)
	rep.Check(d.Hedges+d.RerouteLaunches <= allowed,
		"%d hedges + %d re-routes exceed the %d-token budget (%.0f%% of %d primaries + burst %g)",
		d.Hedges, d.RerouteLaunches, allowed, p.BudgetRatio*100, d.Primaries, p.BudgetBurst)
}

// one boots a fresh three-node cluster (n0 is the victim), arms the flap
// window at load start, drives the load, and folds the gate's, the
// backends', the ledger's and the injector's views into res.
func (p chaosParams) one(rep *harness.Report, res *chaosRun) error {
	inj := fault.New(p.gray())
	work := time.Duration(p.WorkMs) * time.Millisecond
	job := server.Workload{Name: "work", Class: "work", Desc: "fixed-cost unit of work, cancellation-aware",
		Run: func(ctx *runtime.Ctx, _ server.Params) (any, error) {
			select {
			case <-time.After(work):
				return "ok", nil
			case <-ctx.Context().Done():
				return nil, ctx.Context().Err()
			}
		}}
	nodes := make([]harness.NodeConfig, 3)
	for i := range nodes {
		arch := amc.MustNew(fmt.Sprintf("n%d", i), amc.CGroup{Freq: 2.0, N: 4})
		nodes[i] = harness.NodeConfig{Arch: arch, MaxInflight: 1 << 12, Obs: obs.NewTracer(arch.NumCores(), 0),
			Workloads: map[string]server.Workload{"work": job}}
	}
	nodes[0].Wrap = func(h http.Handler) http.Handler { return fault.Middleware(h, inj) }

	gcfg := &gate.Config{
		Policy:       gate.Policy{Kind: gate.PolicyRoundRobin},
		PollInterval: 50 * time.Millisecond,
		Breaker:      client.BreakerConfig{Threshold: 8, Cooldown: 500 * time.Millisecond},
	}
	if res.Defended {
		gcfg.Hedge = gate.HedgeConfig{Enabled: true, MinDelay: p.HedgeMin, MaxDelay: 250 * time.Millisecond}
		gcfg.Budget = gate.BudgetConfig{Ratio: p.BudgetRatio, Burst: p.BudgetBurst}
		gcfg.Eject = gate.EjectConfig{Enabled: true, Factor: 3, Window: 400 * time.Millisecond, Probe: 150 * time.Millisecond, MinSamples: 5}
	}
	c, err := harness.StartCluster(nodes, gcfg)
	if err != nil {
		return err
	}
	defer func() { rep.Fail(c.Close()...) }()

	capDir, err := os.MkdirTemp("", "watsaccept-chaos")
	if err != nil {
		return err
	}
	defer os.RemoveAll(capDir)
	for _, n := range c.Nodes {
		if _, err := n.Srv.StartCapture(trace.CaptureConfig{Path: filepath.Join(capDir, n.Name+".ndjson")}); err != nil {
			return err
		}
	}

	arrivals := harness.Schedule(p.Seed, []harness.Stream{{Class: "work", Body: []byte(`{"workload":"work"}`)}},
		[]harness.Phase{{Dur: p.Dur, Rates: []float64{p.Rate}}}, 0)
	inj.Arm(time.Now())
	samples := c.OpenLoop(arrivals)

	// A request sent just before the flap opens can still land inside it,
	// and one sent just before it closes resolves after: keep 100 ms clear
	// of the window's edges.
	const edge = 100 * time.Millisecond
	all := harness.Fold(samples, nil)
	res.Sent, res.OK, res.Failed = all.Sent, all.OK, all.Sent-all.OK
	res.Healthy = harness.Fold(samples, func(s harness.Sample) bool { return s.SentAt < p.GrayAt-edge }).Window()
	res.Degraded = harness.Fold(samples, func(s harness.Sample) bool { return s.SentAt >= p.GrayAt+edge && s.SentAt < p.Dur-edge }).Window()

	res.Defense = c.Gate.Defenses()
	res.Routed, res.EjectionsAll = map[string]uint64{}, map[string]uint64{}
	for i, s := range c.Gate.Snapshot() {
		res.Routed[s.Name], res.EjectionsAll[s.Name] = s.Routed, s.Ejections
		res.BreakerOpens += s.BreakerOpens
		if i == 0 {
			res.Ejections, res.Probes = s.Ejections, s.Probes
		}
	}

	// The decision ledger is the independent witness for at-most-once:
	// count root tasks that ran their full body and were not cancelled.
	// An abandoned hedge loser appears not at all (cancelled before
	// admission) or as a cancelled or short-run task, never as a second
	// full execution of an acknowledged job.
	fullRun := work - 500*time.Microsecond
	for _, n := range c.Nodes {
		res.Completed += n.Srv.Metrics().Counters().Completed
		if _, err := n.Srv.StopCapture(); err != nil {
			return err
		}
		ledger, err := trace.ParseCaptureFile(filepath.Join(capDir, n.Name+".ndjson"))
		if err != nil {
			return err
		}
		for _, e := range ledger.Ends {
			switch {
			case e.Cancelled:
				res.LedgerCancel++
			case time.Duration(e.End-e.Start) >= fullRun:
				res.LedgerExec++
			}
		}
	}

	// Determinism: replay the plan over the indices the live injector
	// assigned and compare with what it injected.
	res.FaultsLive, res.Assigned = inj.Counts(), inj.Assigned("serve")
	for i := uint64(0); i < res.Assigned; i++ {
		res.FaultsPlan.Add(inj.PlanNet("serve", i))
	}
	return nil
}
