package main

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"wats/internal/amc"
	"wats/internal/harness"
	"wats/internal/runtime"
	"wats/internal/sched"
	"wats/internal/server"
	"wats/internal/stats"
)

// Scenario live: the paper's Fig. 7 pattern on the live runtime
// (EXPERIMENTS.md, BENCH_live.json).
//
// Hypothesis: on real kernels and emulated core speeds, WATS's makespan
// gain over random stealing (Cilk) is largest on the machine with the
// fewest fast cores and shrinks to nothing on a symmetric one. Reported,
// not gated: a host with fewer CPUs than emulated cores time-slices the
// workers, so makespans of batches this short need not separate the
// policies.
//
// Varied: the machine (1 fast + 3 slow through 4 fast) and the policy.
//
// Controlled: one bare runtime per run (speed emulation on, seed 7), the
// same seeded kernel batch each round — every task the Run of a
// server.Builtins() workload, the code watsd serves — and the rounds per
// run; the policies alternate within each repeat, so host drift hits all
// of them alike.
//
// Gates, with or without -check: every spawned task finished and no
// workload returned an error.
type liveParams struct {
	Machines []*amc.Arch
	Policies []sched.Kind // the gain compares the last with the first
	Batch    []liveTasks  // one round
	Rounds   int          // batches per run, each waited for
	Repeats  int          // runs per machine and policy
}

// liveTasks is Count tasks of one built-in workload.
type liveTasks struct {
	Workload string
	Params   server.Params
	Count    int
}

var live = liveParams{
	Machines: []*amc.Arch{
		amc.MustNew("1 fast + 3 slow", amc.CGroup{Freq: 2.0, N: 1}, amc.CGroup{Freq: 0.8, N: 3}),
		amc.MustNew("2 fast + 2 slow", amc.CGroup{Freq: 2.0, N: 2}, amc.CGroup{Freq: 0.8, N: 2}),
		amc.MustNew("3 fast + 1 slow", amc.CGroup{Freq: 2.0, N: 3}, amc.CGroup{Freq: 0.8, N: 1}),
		amc.MustNew("4 fast (symmetric)", amc.CGroup{Freq: 2.0, N: 4}),
	},
	Policies: []sched.Kind{sched.KindCilk, sched.KindPFT, sched.KindWATS},
	// A few heavy blocks and GA islands, many light digests.
	Batch: []liveTasks{
		{"bzip2", server.Params{Size: 12 << 10}, 2},
		{"ga", server.Params{Size: 64, Generations: 8}, 2},
		{"lzw", server.Params{Size: 6 << 10}, 6},
		{"dmc", server.Params{Size: 2 << 10}, 4},
		{"sha1", server.Params{Size: 4 << 10}, 12},
		{"md5", server.Params{Size: 4 << 10}, 12},
	},
	Rounds:  6,
	Repeats: 5,
}

type liveMachine struct {
	Machine    string               `json:"machine"`
	MakespanMS map[string][]float64 `json:"makespan_ms"` // one per repeat
	MedianMS   map[string]float64   `json:"median_ms"`
	Ordering   string               `json:"ordering_by_median"`
	// GainPct is 100·(1 − last/first policy's makespan) per repeat.
	GainPct [3]float64 `json:"gain_pct_min_median_max"`
}

type liveReport struct {
	Benchmark string        `json:"benchmark"`
	Generated string        `json:"generated"`
	Gain      string        `json:"gain"`
	Rounds    int           `json:"rounds"`
	Repeats   int           `json:"repeats"`
	Machines  []liveMachine `json:"machines"`
}

func (p liveParams) run(rep *harness.Report, _ bool) (any, error) {
	ws := server.Builtins()
	for _, b := range p.Batch {
		if _, ok := ws[b.Workload]; !ok {
			return nil, fmt.Errorf("no built-in workload %q", b.Workload)
		}
	}
	first, last := p.Policies[0], p.Policies[len(p.Policies)-1]
	r := &liveReport{Benchmark: "live-kernels-by-policy", Generated: time.Now().UTC().Format(time.RFC3339),
		Gain: fmt.Sprintf("%s vs %s", last, first), Rounds: p.Rounds, Repeats: p.Repeats}
	fmt.Printf("live: %d kernel batches a run, %d repeats; median makespans, %s gain [range], ordering\n", p.Rounds, p.Repeats, r.Gain)
	for _, arch := range p.Machines {
		m := liveMachine{Machine: arch.Name, MakespanMS: map[string][]float64{}, MedianMS: map[string]float64{}}
		var gains []float64
		for i := 0; i < p.Repeats; i++ {
			for _, k := range p.Policies {
				ms, err := p.one(rep, arch, k, ws)
				if err != nil {
					return nil, err
				}
				m.MakespanMS[string(k)] = append(m.MakespanMS[string(k)], ms)
			}
			gains = append(gains, harness.Round3(100*(1-m.MakespanMS[string(last)][i]/m.MakespanMS[string(first)][i])))
		}
		line := fmt.Sprintf("  %-18s", arch.Name)
		names := make([]string, len(p.Policies))
		for i, k := range p.Policies {
			names[i] = string(k)
			m.MedianMS[names[i]] = harness.Round3(stats.Quantile(m.MakespanMS[names[i]], 0.5))
			line += fmt.Sprintf("  %s %5.1fms", k, m.MedianMS[names[i]])
		}
		sort.SliceStable(names, func(i, j int) bool { return m.MedianMS[names[i]] < m.MedianMS[names[j]] })
		m.Ordering = strings.Join(names, " < ")
		m.GainPct = [3]float64{stats.Min(gains), harness.Round3(stats.Quantile(gains, 0.5)), stats.Max(gains)}
		fmt.Printf("%s  %+6.1f%% [%+.1f, %+.1f]  %s\n", line, m.GainPct[1], m.GainPct[0], m.GainPct[2], m.Ordering)
		r.Machines = append(r.Machines, m)
	}
	return r, nil
}

// one runs p.Rounds batches on a fresh runtime and returns the makespan
// in milliseconds, recording any task that did not finish or failed.
func (p liveParams) one(rep *harness.Report, arch *amc.Arch, kind sched.Kind, ws map[string]server.Workload) (float64, error) {
	rt, err := runtime.New(runtime.Config{Arch: arch, Policy: kind, Seed: 7})
	if err != nil {
		return 0, err
	}
	defer rt.Shutdown()
	var spawned int64
	var done, failed atomic.Int64
	start := time.Now()
	for round := 0; round < p.Rounds; round++ {
		for _, b := range p.Batch {
			w := ws[b.Workload]
			for i := 0; i < b.Count; i++ {
				spawned++
				params := b.Params
				params.Seed = uint64(spawned) // a distinct input per task, the same under every policy
				if err := rt.Spawn(w.Class, func(ctx *runtime.Ctx) {
					if _, err := w.Run(ctx, params); err != nil {
						failed.Add(1)
					}
					done.Add(1)
				}); err != nil {
					return 0, err
				}
			}
		}
		rt.Wait()
	}
	ms := harness.Round3(float64(time.Since(start)) / float64(time.Millisecond))
	rep.Check(done.Load() == spawned && rt.TasksRun() == spawned,
		"%s on %s: %d tasks spawned, %d finished, runtime ran %d", kind, arch.Name, spawned, done.Load(), rt.TasksRun())
	rep.Check(failed.Load() == 0, "%s on %s: %d workloads returned an error", kind, arch.Name, failed.Load())
	return ms, nil
}
