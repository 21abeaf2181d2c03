package server

import (
	"net/http"

	"wats/internal/obs"
	"wats/internal/runtime"
)

// NewDebugMux builds the standard debug server over a live runtime:
// Prometheus /metrics (scheduler counters, per-worker rows and — when
// jobs is non-nil — per-job latency histograms), the JSON scheduler
// snapshot at /debug/wats, the buffered Chrome trace at
// /debug/wats/trace, expvar and pprof. This is the one place the
// runtime's introspection surface is wired to HTTP; Server.Handler
// mounts it.
func NewDebugMux(rt *runtime.Runtime, jobs *obs.JobMetrics) *http.ServeMux {
	return obs.NewMux(
		rt.Tracer(),
		func() any { return rt.Snapshot() },
		func() []obs.WorkerCounters {
			stats := rt.Stats()
			if rt.RetiredWorkers() > 0 {
				// One aggregate row (worker -1) keeps energy and task
				// totals exact after shrinks retire workers.
				stats = append(stats, rt.RetiredStats())
			}
			rows := make([]obs.WorkerCounters, len(stats))
			for i, ws := range stats {
				rows[i] = obs.WorkerCounters{
					Worker: ws.Worker, Group: ws.Group, TasksRun: ws.TasksRun,
					Steals: ws.Steals, StealAttempts: ws.StealAttempts,
					Cancelled: ws.Cancelled, BusyNanos: ws.BusyNanos,
					Panics: ws.Panics, EnergyJoules: ws.EnergyJoules, Retiring: ws.Retiring,
				}
			}
			return rows
		},
		jobs)
}
