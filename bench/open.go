package main

import (
	"bytes"
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/amc"
	"wats/internal/client"
	"wats/internal/gate"
	"wats/internal/rng"
	"wats/internal/stats"
)

const (
	classHeavy = iota
	classLight
)

// The open-loop mix: arrival rates per second, and the latency within
// which a job of the class counts towards goodput.
var mixedClasses = [2]struct {
	rate  float64
	limit time.Duration
	body  string
}{
	classHeavy: {50, 30 * time.Millisecond, `{"workload":"heavy","params":{"seed":`},
	classLight: {200, 8 * time.Millisecond, `{"workload":"light","params":{"seed":`},
}

// maxOutstanding bounds the jobs the generator has in flight. An arrival
// beyond it is dropped and counted as failed: an open loop that waits
// instead would hide the very backlog it exists to show. The offered
// load keeps 1.6 jobs in the system on average, so Poisson clustering
// alone reaches 8 about once in two runs; and when a shared host stalls
// the process for a tenth of a second, the arrivals that fell due in the
// stall are all sent at once when it resumes. The bound is a second's
// worth of arrivals: such a stall shows in the latencies, which count
// from the due time, and not as failures.
const maxOutstanding = 256

type arrival struct {
	at    time.Duration // due time, from the start of warm-up
	class uint8
}

// schedule merges one Poisson stream per class into the arrivals of a
// run, fixed by the seed before anything is sent.
func schedule(seed uint64, dur time.Duration) []arrival {
	var out []arrival
	for c, cl := range mixedClasses {
		r := rng.New(seed*2 + uint64(c))
		for at := time.Duration(0); ; {
			at += time.Duration(r.ExpFloat64() / cl.rate * float64(time.Second))
			if at >= dur {
				break
			}
			out = append(out, arrival{at: at, class: uint8(c)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// mixedCluster is gatedemo's three machines. heavy sleeps 16 ms times
// the slowdown, so where a heavy job is sent decides its latency.
func mixedCluster() []nodeSpec {
	mk := func(name string, slowdown float64, groups ...amc.CGroup) nodeSpec {
		return nodeSpec{name: name, arch: amc.MustNew(name, groups...), slowdown: slowdown,
			maxQueued: 1 << 14, maxInflight: 1 << 12}
	}
	return []nodeSpec{
		// mixed first, so that no order-based tie-break lands on the
		// backend that is best for heavy jobs.
		mk("mixed", 2, amc.CGroup{Freq: 2.0, N: 1}, amc.CGroup{Freq: 0.8, N: 1}),
		mk("slow", 3, amc.CGroup{Freq: 0.8, N: 4}),
		mk("fast", 1, amc.CGroup{Freq: 2.0, N: 4}),
	}
}

// watsgateDefaults is the gate as cmd/watsgate starts it with no flags.
func watsgateDefaults() *gate.Config {
	return &gate.Config{
		Policy:       gate.Policy{Kind: gate.PolicyWeighted, Weights: gate.DefaultScorers()},
		PollInterval: 250 * time.Millisecond,
		Alpha:        0.3,
		Breaker:      client.BreakerConfig{Threshold: 8, Cooldown: 2 * time.Second},
		Hedge:        gate.HedgeConfig{Enabled: true, MinDelay: 5 * time.Millisecond, MaxDelay: time.Second},
		Budget:       gate.BudgetConfig{Ratio: 0.1, Burst: 32},
		Eject:        gate.EjectConfig{Enabled: true, Factor: 3, Window: 1500 * time.Millisecond},
	}
}

// mixedWarmupWindows is longer than the closed loops' warm-up: the gate
// has to learn its TC table before routing is what is measured.
const mixedWarmupWindows = 3

func runGateMixedOpen(e *env) error {
	spec := stackSpec{nodes: mixedCluster(), gate: watsgateDefaults()}
	st, err := e.setUp(spec)
	if err != nil {
		return err
	}
	defer st.close()

	warmup := time.Duration(mixedWarmupWindows) * e.win
	measured := time.Duration(measuredWindows) * e.win
	arrivals := schedule(e.seed, warmup+measured)
	tracedFrom := warmup + e.refPhase()

	// One goroutine walks the schedule and starts a sender per arrival.
	var (
		outstanding atomic.Int64
		oks         atomic.Int64
		wg          sync.WaitGroup
		mu          sync.Mutex // guards all
		all         struct {
			samples []sample
			late    []float64 // ms between due time and actual send
			warmOK  int64     // warm-up jobs that came back OK
			tally
		}
	)
	start := time.Now()
	startNs := int64(start.Sub(e.epoch))
	send := func(id int64, arr arrival) {
		defer wg.Done()
		body := taggedBody(mixedClasses[arr.class].body)
		putTag(body, e.tag0+id)
		due := startNs + int64(arr.at)
		t0 := e.now()
		res, err := st.cl.SubmitJob(context.Background(), body)
		t1 := e.now()
		outstanding.Add(-1)
		ok := err == nil && res.StatusCode == http.StatusOK && bytes.Contains(res.Body, []byte(`"status":"completed"`))
		mu.Lock()
		defer mu.Unlock()
		switch {
		case arr.at < warmup:
			if ok {
				all.warmOK++
			}
		case !ok:
			all.failed++
		default:
			all.ok++
			oks.Add(1)
			all.samples = append(all.samples, sample{start: due, lat: t1 - due, class: arr.class})
			all.late = append(all.late, nsToMs(t0-due))
			if e.traced && arr.at >= tracedFrom {
				e.rec.add(spSubmit, noNode, id, t0, t1)
				e.rec.addServerTimes(id, msField(res.Body, `"queue_wait_ms":`), msField(res.Body, `"exec_ms":`))
			}
		}
	}

	boundsCh := make(chan []boundary, 1)
	go func() {
		boundsCh <- watchWindows(start.Add(warmup), e.win, measuredWindows, oks.Load)
	}()
	var dropped int64
	var rt0 runtimeTotals
	var routed0 map[string]map[string]uint64
	for i, a := range arrivals {
		time.Sleep(time.Until(start.Add(a.at)))
		if routed0 == nil && a.at >= warmup {
			rt0, routed0 = runtimeTotalsOf(st), routedByClass(st.gate)
			e.startProc(st)
		}
		e.rec.setOn(e.traced && a.at >= tracedFrom)
		if outstanding.Load() >= maxOutstanding {
			if a.at >= warmup {
				dropped++
			}
			continue
		}
		outstanding.Add(1)
		wg.Add(1)
		go send(int64(i), a)
	}
	wg.Wait()
	e.rec.setOn(false)
	bounds := <-boundsCh

	all.failed += dropped
	// A hedge that loses a photo finish still completes on its backend,
	// so the servers may have completed up to one job per hedge more than
	// the client saw come back (the set-up probe included).
	seen := all.ok + all.warmOK + 1
	extra := st.completed() - seen
	e.check(extra >= 0 && extra <= int64(st.gate.Defenses().Hedges),
		"conservation: client saw %d jobs OK, servers completed %d", seen, st.completed())

	measuredStart := startNs + int64(warmup)
	windowMetrics(e.ms, all.samples, bounds, measuredStart, e.win)
	// The schedule fixes the rate, and a stall of the host moves
	// completions into the next window, so here the best window would
	// reward a disturbance: the rate is taken over the whole phase.
	e.ms.put("jobs_per_s", float64(all.ok)/measured.Seconds(), "1/s", int(all.ok))
	e.classMetrics(all.samples, all.ok+all.failed)
	e.checkBacklog(all.samples, measuredStart)
	if len(all.late) > 0 {
		e.ms.put("gen.late_p99_ms", stats.Quantile(all.late, 0.99), "ms", len(all.late))
	}
	e.gateMetrics(st.gate)
	e.routingMetrics(st.gate, routed0)
	if e.traced {
		traced := e.splitTraced(all.samples, bounds, measuredStart)
		e.rec.layerMetrics(e.ms)
		e.clientMetrics(st.cl, traced)
		e.serverMetrics(st, rt0)
	}
	e.finish(all.tally)
	return nil
}

// classMetrics reports what only a mixed-class run has: per-class
// latency from the due time, and the share of the jobs sent that came
// back OK within their class's limit.
func (e *env) classMetrics(samples []sample, attempted int64) {
	var lat [2][]float64
	good := 0
	for _, s := range samples {
		lat[s.class] = append(lat[s.class], nsToMs(s.lat))
		if time.Duration(s.lat) <= mixedClasses[s.class].limit {
			good++
		}
	}
	if attempted > 0 {
		e.ms.put("goodput_share", float64(good)/float64(attempted), "ratio", int(attempted))
	}
	if h := lat[classHeavy]; len(h) > 0 {
		e.ms.put("heavy_lat_p50_ms", stats.Quantile(h, 0.50), "ms", len(h))
		e.ms.put("heavy_lat_p95_ms", stats.Quantile(h, 0.95), "ms", len(h))
	}
	if l := lat[classLight]; len(l) > 0 {
		e.ms.put("light_lat_p95_ms", stats.Quantile(l, 0.95), "ms", len(l))
	}
}

// checkBacklog fails the run when the jobs in the system keep growing.
// By Little's law the mean number in the system over a window is the
// latency summed over the jobs due in it, divided by its length. A
// system that keeps up ends the run where it spent most of it; one stall
// of the host piles jobs up for a window and drains again, so only a
// pile that is still there in both of the last two windows counts.
func (e *env) checkBacklog(samples []sample, measuredStart int64) {
	inSystem := make([]float64, measuredWindows)
	for _, s := range samples {
		if w := (s.start - measuredStart) / int64(e.win); w >= 0 && w < measuredWindows {
			inSystem[w] += float64(s.lat) / float64(e.win)
		}
	}
	limit := 2*median(inSystem) + 1
	last := inSystem[measuredWindows-2:]
	e.check(last[0] <= limit || last[1] <= limit,
		"backlog grows: mean jobs in system %.2f and %.2f in the last two windows, median %.2f", last[0], last[1], median(inSystem))
}
