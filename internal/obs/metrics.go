package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// WorkerCounters is the engine-agnostic per-worker counter row the
// /metrics handler renders (server.NewDebugMux maps the live runtime's
// Stats() onto it).
type WorkerCounters struct {
	Worker        int
	Group         int
	TasksRun      int64
	Steals        int64
	StealAttempts int64
	Cancelled     int64
	Panics        int64
	BusyNanos     int64
	// EnergyJoules is the modeled energy the worker has consumed so far
	// (DVFS power model × busy seconds).
	EnergyJoules float64
	// Retiring marks a worker mid-drain during an elastic shrink.
	Retiring bool
}

// MetricsHandler serves the tracer's counters and histograms in the
// Prometheus text exposition format. Any argument may be nil; workers is
// read on every scrape, and jobs adds the service-level job metrics of a
// job server (see JobMetrics).
func MetricsHandler(tracer *Tracer, workers func() []WorkerCounters, jobs *JobMetrics) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		if tracer != nil {
			writeTracerMetrics(&sb, tracer)
		}
		if workers != nil {
			writeWorkerMetrics(&sb, workers())
		}
		if jobs != nil {
			writeJobMetrics(&sb, jobs)
		}
		_, _ = w.Write([]byte(sb.String()))
	})
}

func writeTracerMetrics(sb *strings.Builder, t *Tracer) {
	c := t.Counters()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("wats_spawns_total", "Tasks pushed to scheduler pools.", c.Spawns)
	counter("wats_pops_total", "Own-pool task acquisitions.", c.Pops)
	counter("wats_steal_attempts_total", "Victim-pool steal probes, successful or not.", c.StealAttempts)
	counter("wats_steals_total", "Successful steals.", c.Steals)
	counter("wats_completes_total", "Completed tasks.", c.Completes)
	counter("wats_cancels_total", "Tasks dropped unrun because their job context was done.", c.Cancels)
	counter("wats_panics_total", "Task panics recovered by the isolation layer.", c.Panics)
	counter("wats_stalls_total", "Watchdog detections of tasks running past the stall threshold.", c.Stalls)
	counter("wats_repartitions_total", "Helper-thread cluster-map rebuilds (Algorithm 1).", c.Repartitions)
	counter("wats_resizes_total", "Elastic worker-pool resizes.", c.Resizes)
	counter("wats_trace_events_total", "Scheduler events recorded to ring buffers.", c.Events)
	counter("wats_trace_events_dropped_total", "Ring-buffer events overwritten before reading.", c.Dropped)
	fmt.Fprintf(sb, "# HELP wats_workers Current worker-pool size.\n# TYPE wats_workers gauge\nwats_workers %d\n", c.Workers)

	histogram(sb, "wats_steal_latency_nanos", "Acquisition-walk latency of successful steals.", "", t.StealLatency())
	histogram(sb, "wats_repartition_duration_nanos", "Algorithm 1 rebuild duration.", "", t.RepartitionDuration())
	histogram(sb, "wats_queue_depth", "Pool depth observed after each push.", "", t.QueueDepth())

	classes := t.ClassWork()
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(sb, "# HELP wats_class_work_nanos Eq.2-normalized execution time per task class.\n# TYPE wats_class_work_nanos histogram\n")
	for _, name := range names {
		histogram(sb, "wats_class_work_nanos", "", fmt.Sprintf("class=%q", name), classes[name])
	}
}

// histogram writes one Prometheus histogram. Buckets above the highest
// non-empty one collapse into +Inf to keep the exposition small; the
// cumulative counts stay exact.
func histogram(sb *strings.Builder, name, help, labels string, s HistSnapshot) {
	if help != "" {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	top := s.MaxBucket()
	for i := 0; i <= top; i++ {
		cum += s.Buckets[i]
		fmt.Fprintf(sb, "%s_bucket{%s%sle=\"%d\"} %d\n", name, labels, sep, BucketBound(i), cum)
	}
	fmt.Fprintf(sb, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels == "" {
		fmt.Fprintf(sb, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count)
	} else {
		fmt.Fprintf(sb, "%s_sum{%s} %d\n%s_count{%s} %d\n", name, labels, s.Sum, name, labels, s.Count)
	}
}

func writeWorkerMetrics(sb *strings.Builder, ws []WorkerCounters) {
	if len(ws) == 0 {
		return
	}
	gauge := func(name, help string, get func(WorkerCounters) int64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, w := range ws {
			fmt.Fprintf(sb, "%s{worker=\"%d\",group=\"%d\"} %d\n", name, w.Worker, w.Group, get(w))
		}
	}
	gauge("wats_worker_tasks_total", "Tasks executed per worker.", func(w WorkerCounters) int64 { return w.TasksRun })
	gauge("wats_worker_steals_total", "Successful steals per worker.", func(w WorkerCounters) int64 { return w.Steals })
	gauge("wats_worker_steal_attempts_total", "Victim-pool probes per worker.", func(w WorkerCounters) int64 { return w.StealAttempts })
	gauge("wats_worker_cancelled_total", "Tasks dropped unrun per worker (job context done).", func(w WorkerCounters) int64 { return w.Cancelled })
	gauge("wats_worker_panics_total", "Recovered task panics per worker.", func(w WorkerCounters) int64 { return w.Panics })
	gauge("wats_worker_busy_nanos_total", "Busy time per worker (stalls included).", func(w WorkerCounters) int64 { return w.BusyNanos })
	var total float64
	fmt.Fprintf(sb, "# HELP wats_worker_energy_joules_total Modeled energy per worker (power model x busy seconds).\n# TYPE wats_worker_energy_joules_total counter\n")
	for _, w := range ws {
		total += w.EnergyJoules
		fmt.Fprintf(sb, "wats_worker_energy_joules_total{worker=\"%d\",group=\"%d\"} %g\n", w.Worker, w.Group, w.EnergyJoules)
	}
	fmt.Fprintf(sb, "# HELP wats_energy_joules_total Modeled energy across all workers, retired ones included.\n# TYPE wats_energy_joules_total counter\nwats_energy_joules_total %g\n", total)
}

// expvarOnce guards the process-wide expvar name, which panics on
// duplicate registration (tests construct many tracers).
var (
	expvarOnce   sync.Once
	expvarTracer atomic.Pointer[Tracer]
)

// publishExpvar exposes the tracer's counters under the expvar name
// "wats" (served by expvar's /debug/vars). The name is process-wide, so
// it serves the most recently published tracer.
func publishExpvar(t *Tracer) {
	expvarTracer.Store(t)
	expvarOnce.Do(func() {
		expvar.Publish("wats", expvar.Func(func() any {
			if t := expvarTracer.Load(); t != nil {
				return t.Counters()
			}
			return nil
		}))
	})
}

// NewMux builds the debug server: Prometheus /metrics, pprof under
// /debug/pprof/, expvar under /debug/vars, the scheduler snapshot as JSON
// at /debug/wats, and the buffered events as a Chrome trace at
// /debug/wats/trace (save it and load in Perfetto). Any argument may be
// nil; jobs, when non-nil, folds a job server's per-job metrics into
// /metrics.
func NewMux(tracer *Tracer, snapshot func() any, workers func() []WorkerCounters, jobs *JobMetrics) *http.ServeMux {
	publishExpvar(tracer)
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(tracer, workers, jobs))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/wats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var s any
		if snapshot != nil {
			s = snapshot()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(s)
	})
	mux.HandleFunc("/debug/wats/trace", func(w http.ResponseWriter, r *http.Request) {
		if tracer == nil {
			http.Error(w, "no active tracer", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChrome(w, Stream{Name: "wats-live", Events: tracer.Events()})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `wats debug server
  /metrics          Prometheus text metrics
  /debug/wats       scheduler snapshot (JSON)
  /debug/wats/trace Chrome trace of buffered events (load in Perfetto)
  /debug/vars       expvar
  /debug/pprof/     pprof
`)
	})
	return mux
}
