package main

import (
	"fmt"
	"strings"
	"time"

	"wats/internal/amc"
	"wats/internal/client"
	"wats/internal/gate"
	"wats/internal/harness"
	"wats/internal/runtime"
	"wats/internal/server"
)

// Scenario gate: workload-aware routing across unequal machines, and
// failover (DESIGN.md §13, BENCH_gate.json).
//
// Hypothesis: heavy jobs are CPU-bound — 16 ms on the fast machine, 2x
// and 3x that on the other two — while light jobs take 2 ms anywhere. A
// router blind to workload identity keeps sending heavy jobs to slow
// machines and eats the tail; the weighted scorer learns per-backend
// class latency from responses (the paper's TC table, lifted from cores
// to machines) and puts each class where it runs best. And when a
// backend's listener dies mid-load and later returns on the same
// address, the gate routes around it, loses no acknowledged job, and
// takes it back.
//
// Varied: the routing policy — round-robin, least-loaded, weighted.
//
// Controlled: the three machines, the arrival schedule (one seed, open
// loop, 50 heavy/s + 200 light/s), poll interval, breaker settings; a
// fresh cluster per run.
//
// Gates: no policy run lost or shed a job; weighted heavy steady p99
// (first second excluded: TC exploration) at most 0.8x the better
// baseline's; failover run: zero failed, sent = ok + shed + failed, ok
// at most what the backends completed, the outage was observed, and the
// restarted backend was routed to again.
type routingParams struct {
	HeavyMs, LightMs     int     // service time; heavy is on the fast machine
	HeavyRate, LightRate float64 // jobs/s
	Dur, RampExclude     time.Duration
	FailoverDur          time.Duration
	KillAt, RestartAt    time.Duration // the mixed machine's listener, into the failover run
	Margin               float64
	Seed                 uint64
}

var routing = routingParams{HeavyMs: 16, LightMs: 2, HeavyRate: 50, LightRate: 200,
	Dur: 4 * time.Second, RampExclude: time.Second,
	FailoverDur: 7 * time.Second, KillAt: 2500 * time.Millisecond, RestartAt: 4500 * time.Millisecond,
	Margin: 0.8, Seed: 1}

// machines is the cluster: the shape each backend reports and the
// slowdown of CPU-bound work on it. Mixed first, so that no order-based
// tie-break lands on the machine that is best for heavy jobs.
var machines = []struct {
	arch     *amc.Arch
	slowdown float64
}{
	{amc.MustNew("mixed", amc.CGroup{Freq: 2.0, N: 1}, amc.CGroup{Freq: 0.8, N: 1}), 2},
	{amc.MustNew("slow", amc.CGroup{Freq: 0.8, N: 4}), 3},
	{amc.MustNew("fast", amc.CGroup{Freq: 2.0, N: 4}), 1},
}

type policyResult struct {
	Policy string            `json:"policy"`
	Heavy  harness.Tally     `json:"heavy"`
	Light  harness.Tally     `json:"light"`
	Routed map[string]uint64 `json:"routed_by_backend"`
}

type failoverResult struct {
	Sent             int               `json:"sent"`
	OK               int               `json:"ok"`
	Shed             int               `json:"shed"`
	Failed           int               `json:"failed"`
	OutageObserved   bool              `json:"outage_observed"`
	Reroutes         uint64            `json:"reroutes"`
	RoutedPostRecov  uint64            `json:"routed_to_restarted_after_recovery"`
	BackendCompleted uint64            `json:"backend_completed_total"`
	Routed           map[string]uint64 `json:"routed_by_backend"`
}

type gateReport struct {
	Benchmark     string                        `json:"benchmark"`
	Generated     string                        `json:"generated"`
	Cluster       string                        `json:"cluster"`
	HeavyMS       int                           `json:"heavy_ms"`
	LightMS       int                           `json:"light_ms"`
	HeavyRate     float64                       `json:"heavy_rate_per_sec"`
	LightRate     float64                       `json:"light_rate_per_sec"`
	Policies      []policyResult                `json:"policies"`
	HeavyP99Ratio float64                       `json:"weighted_heavy_steady_p99_vs_best_baseline"`
	LearnedTC     map[string]map[string]float64 `json:"learned_tc_ms"`
	Failover      failoverResult                `json:"failover"`
	CheckedMargin float64                       `json:"checked_margin"`
}

// cluster boots the three machines behind a gate with the given policy.
func (p routingParams) cluster(pol gate.Policy) (*harness.Cluster, error) {
	sleep := func(d time.Duration) func(*runtime.Ctx, server.Params) (any, error) {
		return func(*runtime.Ctx, server.Params) (any, error) { time.Sleep(d); return "ok", nil }
	}
	nodes := make([]harness.NodeConfig, len(machines))
	for i, m := range machines {
		heavy := time.Duration(float64(p.HeavyMs)*m.slowdown) * time.Millisecond
		light := time.Duration(p.LightMs) * time.Millisecond
		nodes[i] = harness.NodeConfig{Arch: m.arch, MaxInflight: 1 << 12,
			Workloads: map[string]server.Workload{
				"heavy": {Name: "heavy", Class: "heavy", Desc: "CPU-bound: scales with machine speed", Run: sleep(heavy)},
				"light": {Name: "light", Class: "light", Desc: "speed-insensitive", Run: sleep(light)},
			}}
	}
	return harness.StartCluster(nodes, &gate.Config{
		Policy:       pol,
		PollInterval: 100 * time.Millisecond,
		Breaker:      client.BreakerConfig{Threshold: 4, Cooldown: 500 * time.Millisecond},
	})
}

// arrivals is the mixed load over dur: two merged Poisson streams.
func (p routingParams) arrivals(dur time.Duration) []harness.Arrival {
	return harness.Schedule(p.Seed,
		[]harness.Stream{{Class: "heavy", Body: []byte(`{"workload":"heavy"}`)}, {Class: "light", Body: []byte(`{"workload":"light"}`)}},
		[]harness.Phase{{Dur: dur, Rates: []float64{p.HeavyRate, p.LightRate}}}, p.RampExclude)
}

func (p routingParams) run(rep *harness.Report, check bool) (any, error) {
	var desc []string
	for _, m := range machines {
		desc = append(desc, fmt.Sprintf("%s=%s x%.2f", m.arch.Name, m.arch, m.slowdown))
	}
	r := &gateReport{
		Benchmark: "gate-routing",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Cluster:   strings.Join(desc, ", "),
		HeavyMS:   p.HeavyMs, LightMS: p.LightMs, HeavyRate: p.HeavyRate, LightRate: p.LightRate,
		CheckedMargin: p.Margin,
	}
	fmt.Printf("gate: heavy %dms@fast / light %dms, %g+%g jobs/s over [%s]\n", p.HeavyMs, p.LightMs, p.HeavyRate, p.LightRate, r.Cluster)

	weighted := gate.Policy{Kind: gate.PolicyWeighted, Weights: gate.DefaultScorers()}
	for _, pol := range []gate.Policy{{Kind: gate.PolicyRoundRobin}, {Kind: gate.PolicyLeastLoad}, weighted} {
		res, tc, err := p.compare(rep, pol)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", pol.Kind, err)
		}
		r.Policies, r.LearnedTC = append(r.Policies, *res), tc // the last run's table: weighted
		fmt.Printf("  %-12s heavy p99 %7.2fms (steady %7.2fms)  light p99 %6.2fms  routed %v\n",
			pol.Kind, res.Heavy.P99Ms, res.Heavy.SteadyP99Ms, res.Light.P99Ms, res.Routed)
	}
	best := min(r.Policies[0].Heavy.SteadyP99Ms, r.Policies[1].Heavy.SteadyP99Ms)
	r.HeavyP99Ratio = harness.Round3(r.Policies[2].Heavy.SteadyP99Ms / best)
	fmt.Printf("  weighted / best baseline: heavy steady p99 %.2fx (%.2fms vs %.2fms)\n",
		r.HeavyP99Ratio, r.Policies[2].Heavy.SteadyP99Ms, best)

	fo, err := p.failover(rep, weighted)
	if err != nil {
		return nil, fmt.Errorf("failover run: %w", err)
	}
	r.Failover = *fo
	fmt.Printf("  failover: %d sent = %d ok + %d shed + %d failed; %d reroutes; %d routed to the restarted backend after recovery\n",
		fo.Sent, fo.OK, fo.Shed, fo.Failed, fo.Reroutes, fo.RoutedPostRecov)

	if check {
		for _, pr := range r.Policies {
			lost := pr.Heavy.Sent - pr.Heavy.OK + pr.Light.Sent - pr.Light.OK
			rep.Check(lost == 0, "%s run lost or shed %d jobs under-capacity", pr.Policy, lost)
		}
		rep.Check(r.HeavyP99Ratio <= p.Margin,
			"weighted heavy steady p99 only %.2fx the best baseline (want <= %.2fx)", r.HeavyP99Ratio, p.Margin)
		rep.Check(fo.Failed == 0, "failover lost %d acknowledged jobs", fo.Failed)
		rep.Check(fo.Sent == fo.OK+fo.Shed+fo.Failed, "failover accounting broken: %d sent vs %d+%d+%d", fo.Sent, fo.OK, fo.Shed, fo.Failed)
		rep.Check(uint64(fo.OK) <= fo.BackendCompleted, "failover: %d acknowledged > %d completed by backends", fo.OK, fo.BackendCompleted)
		rep.Check(fo.OutageObserved, "the gate never observed the dead backend as down")
		rep.Check(fo.RoutedPostRecov > 0, "the restarted backend never re-entered the rotation")
	}
	return r, nil
}

// compare drives the mixed load through one policy on a fresh cluster
// and reports per-class latency, where jobs landed, and the TC table
// the gate learned.
func (p routingParams) compare(rep *harness.Report, pol gate.Policy) (*policyResult, map[string]map[string]float64, error) {
	c, err := p.cluster(pol)
	if err != nil {
		return nil, nil, err
	}
	defer func() { rep.Fail(c.Close()...) }()
	samples := c.OpenLoop(p.arrivals(p.Dur))
	res := &policyResult{
		Policy: pol.Kind,
		Heavy:  harness.Fold(samples, func(s harness.Sample) bool { return s.Class == "heavy" }),
		Light:  harness.Fold(samples, func(s harness.Sample) bool { return s.Class == "light" }),
		Routed: map[string]uint64{},
	}
	tc := map[string]map[string]float64{}
	for _, s := range c.Gate.Snapshot() {
		res.Routed[s.Name] = s.Routed
		if len(s.TC) > 0 {
			tc[s.Name] = map[string]float64{}
			for class, ms := range s.TC {
				tc[s.Name][class] = harness.Round3(ms)
			}
		}
	}
	return res, tc, nil
}

// failover drives the load while the mixed machine's listener dies and
// comes back. One goroutine does the killing, the restarting and the
// watching of the gate's view of the victim. Gating on "reroutes > 0"
// would be racy: with no request in flight to the victim between the
// kill and the poller flipping it unready, the gate routes around the
// corpse without a single re-route, which is the good outcome.
func (p routingParams) failover(rep *harness.Report, pol gate.Policy) (*failoverResult, error) {
	c, err := p.cluster(pol)
	if err != nil {
		return nil, err
	}
	defer func() { rep.Fail(c.Close()...) }()
	victim := c.Nodes[0]
	view := func() gate.BackendSnapshot { return c.Gate.Snapshot()[0] }

	fo := &failoverResult{Routed: map[string]uint64{}}
	var routedAtRestart uint64
	var restartErr error
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		start, killed, restarted := time.Now(), false, false
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				v := view()
				if !v.Ready || v.Breaker != client.BreakerClosed {
					fo.OutageObserved = true
				}
				switch at := now.Sub(start); {
				case !killed && at >= p.KillAt:
					killed = true
					fmt.Printf("  failover: killing %q listener\n", victim.Name)
					victim.StopHTTP()
				case !restarted && at >= p.RestartAt:
					restarted = true
					routedAtRestart = v.Routed
					restartErr = victim.StartHTTP()
					fmt.Printf("  failover: %q back on %s\n", victim.Name, victim.Addr)
				}
			}
		}
	}()
	t := harness.Fold(c.OpenLoop(p.arrivals(p.FailoverDur)), nil)
	close(done)
	<-exited
	if restartErr != nil {
		return nil, fmt.Errorf("restart %s: %w", victim.Name, restartErr)
	}

	fo.Sent, fo.OK, fo.Shed, fo.Failed = t.Sent, t.OK, t.Shed, t.Failed
	for _, s := range c.Gate.Snapshot() {
		fo.Routed[s.Name] = s.Routed
		fo.Reroutes += s.Reroutes
	}
	fo.RoutedPostRecov = view().Routed - routedAtRestart
	for _, n := range c.Nodes {
		fo.BackendCompleted += n.Srv.Metrics().Counters().Completed
	}
	return fo, nil
}
