package main

import (
	"math"
	"runtime"
	"time"

	"wats/internal/client"
	"wats/internal/gate"
	"wats/internal/stats"
)

// runtimeTotals sums the live runtimes' counters over a stack's nodes.
type runtimeTotals struct {
	tasksRun, steals, stealAttempts, cancelled, busyNs int64
	joules                                             float64
	workers                                            int
}

func runtimeTotalsOf(st *stack) runtimeTotals {
	var t runtimeTotals
	for _, n := range st.nodes {
		for _, w := range n.rt.Stats() {
			t.tasksRun += w.TasksRun
			t.steals += w.Steals
			t.stealAttempts += w.StealAttempts
			t.cancelled += w.Cancelled
			t.busyNs += w.BusyNanos
			t.joules += w.EnergyJoules
			t.workers++
		}
	}
	return t
}

// serverMetrics reports the server and runtime layers from their own
// counters, as deltas since from (taken when the measured phase began),
// and the queue wait and execution time the responses carried.
func (e *env) serverMetrics(st *stack, from runtimeTotals) {
	now := runtimeTotalsOf(st)
	tasks := int(now.tasksRun - from.tasksRun)
	e.ms.put("runtime.tasks_run", float64(tasks), "count", tasks)
	e.ms.put("runtime.steals", float64(now.steals-from.steals), "count", tasks)
	attempts := now.stealAttempts - from.stealAttempts
	e.ms.put("runtime.steal_attempts", float64(attempts), "count", tasks)
	if attempts > 0 {
		e.ms.put("runtime.steal_success_share", float64(now.steals-from.steals)/float64(attempts), "ratio", int(attempts))
	}
	wall := measuredWindows * float64(e.win)
	e.ms.put("runtime.busy_share", float64(now.busyNs-from.busyNs)/(wall*float64(now.workers)), "ratio", tasks)
	e.ms.put("runtime.cancelled", float64(now.cancelled-from.cancelled), "count", tasks)
	e.ms.put("runtime.energy_joules", now.joules-from.joules, "J", tasks)

	var shed uint64
	for _, n := range st.nodes {
		shed += n.srv.Metrics().Counters().Shed
	}
	e.ms.put("server.shed", float64(shed), "count", tasks)
	var queue, exec []float64
	for _, t := range e.rec.srv {
		queue = append(queue, nsToMs(t.queue))
		exec = append(exec, nsToMs(t.exec))
	}
	if len(queue) > 0 {
		e.ms.put("server.queue_wait_ms", median(queue), "ms", len(queue))
		e.ms.put("server.exec_ms", median(exec), "ms", len(exec))
	}
}

// clientMetrics reports the client layer's tail and its retry counter
// over the traced jobs.
func (e *env) clientMetrics(cl *client.Client, traced []sample) {
	if len(traced) > 0 {
		lat := make([]float64, len(traced))
		for i, s := range traced {
			lat[i] = nsToMs(s.lat)
		}
		e.ms.put("client.lat_p99_ms", stats.Quantile(lat, 0.99), "ms", len(lat))
	}
	e.ms.put("client.retries", float64(cl.Stats().Retries), "count", int(cl.Stats().Requests))
}

// gateMetrics reports the gate's defence counters.
func (e *env) gateMetrics(g *gate.Gate) {
	d := g.Defenses()
	n := int(d.Primaries)
	var reroutes, ejections uint64
	for _, b := range g.Snapshot() {
		reroutes += b.Reroutes
		ejections += b.Ejections
	}
	e.ms.put("gate.hedges", float64(d.Hedges), "count", n)
	e.ms.put("gate.hedge_wins", float64(d.HedgeWins), "count", n)
	e.ms.put("gate.reroutes", float64(reroutes), "count", n)
	e.ms.put("gate.budget_denied", float64(d.BudgetDenied), "count", n)
	e.ms.put("gate.ejections", float64(ejections), "count", n)
}

// routedByClass copies the gate's per-backend per-class routing counts.
func routedByClass(g *gate.Gate) map[string]map[string]uint64 {
	out := map[string]map[string]uint64{}
	for _, b := range g.Snapshot() {
		out[b.Name] = b.RoutedByClass
	}
	return out
}

// routingMetrics reports where the mixed run's jobs went since from, and
// how close the gate's learned TC table is to the service times the
// benchmark configured.
func (e *env) routingMetrics(g *gate.Gate, from map[string]map[string]uint64) {
	slowdown := map[string]float64{}
	for _, n := range mixedCluster() {
		slowdown[n.name] = n.slowdown
	}
	var heavyAll, heavyFast float64
	var relErr []float64
	for _, b := range g.Snapshot() {
		var routed float64
		for class, n := range b.RoutedByClass {
			d := float64(n - from[b.Name][class])
			routed += d
			if class == "heavy" {
				heavyAll += d
				if b.Name == "fast" {
					heavyFast += d
				}
			}
		}
		e.ms.put("gate.routed."+b.Name, routed, "count", int(routed))
		want := map[string]float64{"heavy": nsToMs(int64(heavySleep)) * slowdown[b.Name], "light": nsToMs(int64(lightSleep))}
		for class, ms := range want {
			if learned, ok := b.TC[class]; ok {
				relErr = append(relErr, math.Abs(learned-ms)/ms)
			}
		}
	}
	if heavyAll > 0 {
		e.ms.put("gate.heavy_to_fast_share", heavyFast/heavyAll, "ratio", int(heavyAll))
	}
	if len(relErr) > 0 {
		e.ms.put("gate.tc_rel_err", stats.Mean(relErr), "ratio", len(relErr))
	}
}

// procWatch samples what only shows between window boundaries: how many
// goroutines exist and how many jobs the servers hold admitted.
type procWatch struct {
	stop             chan struct{}
	done             chan struct{}
	goroutines, jobs int
}

func watchProc(st *stack) *procWatch {
	p := &procWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			p.goroutines = max(p.goroutines, runtime.NumGoroutine())
			if st == nil {
				continue
			}
			inflight := 0
			for _, n := range st.nodes {
				inflight += n.srv.Inflight()
			}
			p.jobs = max(p.jobs, inflight)
		}
	}()
	return p
}

func (p *procWatch) end() {
	close(p.stop)
	<-p.done
}
