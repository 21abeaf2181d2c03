// Package server is the network-facing job service over the live runtime:
// named kernel workloads become invocable job types submitted over
// HTTP/JSON, with per-job deadlines carried via context.Context into the
// runtime's cancellation points, admission control that sheds load before
// queues collapse, and graceful drain for zero-drop shutdowns. It is the
// serving layer the ROADMAP's "heavy traffic" north star needs: the WATS
// history/partition machinery learns each endpoint's cost profile through
// the task classes the workloads are bound to.
//
// Lifecycle of one job:
//
//	POST /v1/jobs ── admission (draining? 503; inflight/queue full? 429)
//	   └─ SpawnContext(jobCtx) ── queued in the class's cluster pool
//	        └─ root task runs the workload (may fan out child tasks)
//	              └─ job finalized: completed | failed | expired
//
// A job whose deadline fires while queued is dropped at the runtime's
// next cancellation point (visible as WorkerStats.Cancelled and the
// wats_cancels_total metric) and reported as 504; children of an expired
// job are abandoned at their queue boundaries. Admission rejections are
// 429 with Retry-After, so a well-behaved open-loop client backs off
// instead of collapsing p99 (see cmd/watsload).
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/obs"
	"wats/internal/runtime"
	"wats/internal/scale"
	"wats/internal/trace"
	"wats/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Runtime executes the jobs. Required.
	Runtime *runtime.Runtime
	// Workloads is the job-type registry (nil = Builtins()).
	Workloads map[string]Workload
	// MaxInflight bounds concurrently admitted jobs; submissions beyond
	// it are shed with 429 (0 = 64).
	MaxInflight int
	// ShedQueueDepth sheds submissions while the runtime's queued-task
	// count is at or above it (0 = the runtime's MaxQueuedTasks, so one
	// knob bounds both queue memory and admitted work).
	ShedQueueDepth int
	// DefaultDeadline applies to jobs that set no deadline_ms (0 = none).
	DefaultDeadline time.Duration
	// RetryAfter is the backoff hint on 429 responses (0 = 1s).
	RetryAfter time.Duration
	// Metrics receives per-job latency histograms and outcome counters
	// (nil = a fresh collector; reachable via Server.Metrics).
	Metrics *obs.JobMetrics
}

// Job statuses.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusFailed    = "failed"
	StatusExpired   = "expired"
	// StatusPanicked marks a job poisoned by a task panic: the runtime's
	// isolation layer recovered the panic, the job's context was
	// cancelled (retiring queued siblings), and the job reports a
	// structured 500 instead of taking the daemon down.
	StatusPanicked = "panicked"
)

// JobView is the wire representation of one job.
type JobView struct {
	ID       string `json:"id"`
	Workload string `json:"workload"`
	Status   string `json:"status"`
	// QueueWaitMS is the time from admission to the root task starting
	// (for expired-while-queued jobs: to the deadline firing).
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// ExecMS is the root task's wall-clock execution time.
	ExecMS float64 `json:"exec_ms,omitempty"`
	// EnergyJ is a modeled per-job energy estimate: the root task's
	// execution time priced at a fastest-group core's power draw (the
	// DVFS model of counters.EnergyModel). An upper bound — a job run on
	// a slower group burned less.
	EnergyJ float64 `json:"energy_j,omitempty"`
	Result  any     `json:"result,omitempty"`
	Error   string  `json:"error,omitempty"`
	// Detail carries the panic message (class, worker, value) for
	// panicked jobs: the body reads {"error":"panic","detail":...}.
	Detail string `json:"detail,omitempty"`
}

// Server is the HTTP job service. Create with New, mount Handler, and on
// shutdown call Drain before Runtime.Shutdown.
//
// Job records are pooled (see job.go): synchronous jobs — unary, batch,
// and streaming — run on recycled jobRecs and never enter the jobs map;
// only async (submit-and-poll) jobs are registered there, since their
// records must outlive the submitting request.
type Server struct {
	cfg      Config
	rt       *runtime.Runtime
	metrics  *obs.JobMetrics
	inflight atomic.Int64
	draining atomic.Bool
	idSeq    atomic.Uint64

	recPool sync.Pool // pooled *jobRec for sync/batch/stream jobs
	wheel   *dlWheel  // per-job deadlines (one goroutine, no per-job timer)

	mu       sync.Mutex
	jobs     map[string]*jobRec // async jobs only
	finished []string           // finalized job ids, oldest first (eviction order)

	// capMu guards the single decision-ledger capture (see capture.go).
	capMu   sync.Mutex
	capture *trace.Capture
}

// keepFinished bounds the finalized-job table; the oldest records are
// evicted beyond it so an async-heavy client cannot grow memory without
// bound. In-flight jobs are never evicted.
const keepFinished = 4096

// New builds a Server over cfg.Runtime.
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("server: Config.Runtime is required")
	}
	if cfg.Workloads == nil {
		cfg.Workloads = Builtins()
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.ShedQueueDepth <= 0 {
		cfg.ShedQueueDepth = cfg.Runtime.MaxQueuedTasks()
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.JobMetrics{}
	}
	s := &Server{
		cfg:     cfg,
		rt:      cfg.Runtime,
		metrics: cfg.Metrics,
		jobs:    map[string]*jobRec{},
		wheel:   newWheel(),
	}
	s.recPool.New = func() any { return s.newRecRaw() }
	return s, nil
}

// Metrics returns the server's job-metrics collector (for mounting on a
// debug mux).
func (s *Server) Metrics() *obs.JobMetrics { return s.metrics }

// Inflight returns the number of currently admitted, unfinalized jobs.
func (s *Server) Inflight() int { return int(s.inflight.Load()) }

// Draining reports whether admission has been closed by Drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service mux: the /v1 job API plus the full debug
// mux (/metrics with job histograms, /debug/wats, /debug/pprof/, ...).
func (s *Server) Handler() *http.ServeMux {
	dbg := NewDebugMux(s.rt, s.metrics)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs:batch", s.handleJobsBatch)
	mux.HandleFunc("/v1/stream", s.handleStream)
	mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	mux.HandleFunc("/v1/workloads", s.handleWorkloads)
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/resize", s.handleResize)
	mux.HandleFunc("/v1/trace/start", s.handleTraceStart)
	mux.HandleFunc("/v1/trace/stop", s.handleTraceStop)
	mux.Handle("/metrics", dbg)
	mux.Handle("/debug/", dbg)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `watsd job service
  POST /v1/jobs      submit a job {"workload":..,"params":{..},"deadline_ms":..,"async":bool}
  POST /v1/jobs:batch submit N jobs in one request {"jobs":[{..},..]} (per-item codes)
  GET  /v1/stream    upgrade to the length-prefixed binary job stream (wats-stream/1)
  GET  /v1/jobs/{id} poll an async job
  GET  /v1/workloads list invocable workloads
  GET  /v1/version   build info
  GET  /v1/healthz   liveness + admission state
  GET  /v1/readyz    readiness (503 while draining or wedged)
  GET  /v1/stats     machine-readable load stats (per-class latency EWMAs, queue depth, inflight)
  POST /v1/resize    resize the worker pool {"workers":N} or {"shape":[n1,..,nK]}
  POST /v1/trace/start  start a decision-ledger capture {"path":..} (replay with watstwin)
  POST /v1/trace/stop   stop the capture and seal the file
  GET  /metrics      Prometheus metrics (scheduler + per-job histograms)
  GET  /debug/wats   scheduler snapshot; /debug/pprof/, /debug/vars, /debug/wats/trace
`)
	})
	return mux
}

// submitRequest is one job of a POST /v1/jobs:batch body. A POST /v1/jobs
// body has the same shape and is decoded by wire.DecodeJob.
type submitRequest struct {
	Workload string `json:"workload"`
	Params   Params `json:"params"`
	// DeadlineMS is the job deadline in milliseconds from admission; the
	// job is cancelled at the runtime's next cancellation point once it
	// fires and reported 504 (sync) / "expired" (async).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Async switches to submit-and-poll: respond 202 immediately and
	// expose the job at GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// bodyPool holds the buffers POST /v1/jobs bodies are read into. A
// buffer a large body grew past maxPooledBody is dropped, not kept.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// readJob reads one POST /v1/jobs body, bounded by wire.MaxBody, decodes
// it and resolves its workload. The request's bytes live in a pooled
// buffer only until it returns; on failure it has answered 413 or 400.
func (s *Server) readJob(w http.ResponseWriter, r *http.Request) (wl Workload, req wire.JobRequest, ok bool) {
	bp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bp)
	body, err := wire.ReadBody(*bp, wire.Bounded(w, r), r.ContentLength)
	if cap(body) <= maxPooledBody {
		*bp = body
	}
	if err == nil {
		req, err = wire.DecodeJob(body)
	}
	if err != nil {
		badBody(w, err)
		return wl, req, false
	}
	if wl, ok = s.cfg.Workloads[string(req.Workload)]; !ok {
		httpError(w, http.StatusBadRequest, "unknown workload %q (see /v1/workloads)", req.Workload)
	}
	req.Workload = nil // aliased the pooled buffer
	return wl, req, ok
}

// contentTypeJSON is the header value every synchronous answer shares:
// net/http only reads a response header's value slice.
var contentTypeJSON = []string{"application/json"}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	wl, req, ok := s.readJob(w, r)
	if !ok {
		return
	}
	params := Params(req.Params)
	if err := params.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "bad params: %v", err)
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining: not accepting jobs")
		return
	}
	// Admission: a bounded in-flight count plus queue-depth load shedding
	// on the runtime's own depth counters. Shedding here returns a cheap
	// 429 instead of letting queues balloon and every admitted job's p99
	// collapse.
	if s.reserve(1) == 0 {
		if q := s.rt.QueuedTasks(); q >= s.cfg.ShedQueueDepth {
			s.shed(w, "runtime queue depth %d at shed threshold %d", q, s.cfg.ShedQueueDepth)
		} else {
			s.shed(w, "at max in-flight jobs (%d)", s.cfg.MaxInflight)
		}
		return
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	s.metrics.Submitted()

	if req.Async {
		s.submitAsync(w, &wl, params, deadline)
		return
	}
	rec, code := s.submitSync(r.Context(), &wl, params, deadline)
	if rec == nil {
		httpError(w, http.StatusServiceUnavailable, "runtime shut down")
		return
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(code)
	_, _ = w.Write(rec.buf)
	rec.unref()
}

// submitAsync registers an unpooled record in the jobs map (it must
// outlive this request for GET /v1/jobs/{id}) and responds 202. The
// deadline wheel plus the runtime's abort hook replace the old per-job
// watcher goroutine.
func (s *Server) submitAsync(w http.ResponseWriter, wl *Workload, p Params, deadline time.Duration) {
	r := s.newRecRaw()
	r.idn = s.idSeq.Add(1)
	r.idStr = fmt.Sprintf("j%06d", r.idn)
	s.mu.Lock()
	s.jobs[r.idStr] = r
	s.mu.Unlock()
	if err := s.startJob(r, wl, p, deadline, modeAsync); err != nil {
		httpError(w, http.StatusServiceUnavailable, "runtime shut down")
		return
	}
	writeJSONStatus(w, http.StatusAccepted, r.view())
}

// httpStatusFor maps a final job status to the synchronous response
// code: jobs that ran fine are 200, panicked or failed jobs are a
// structured 500, expired jobs 504.
func httpStatusFor(status string) int {
	switch status {
	case StatusPanicked, StatusFailed:
		return http.StatusInternalServerError
	case StatusExpired:
		return http.StatusGatewayTimeout
	default:
		return http.StatusOK
	}
}

// evictLocked appends id to the finished list and drops the oldest
// finalized jobs beyond keepFinished. Caller holds s.mu. Only async
// jobs are registered (pooled sync records never enter the map), so
// only they pass through here.
func (s *Server) evictLocked(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > keepFinished {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, j.view())
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.cfg.Workloads))
	for n := range s.cfg.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		out = append(out, s.cfg.Workloads[n])
	}
	writeJSON(w, out)
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, Build())
}

// handleHealthz is liveness: always 200 with the admission state in the
// body — a draining instance is still alive and answering pollers.
// Readiness (should the load balancer route here?) is /v1/readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	writeJSON(w, map[string]any{
		"status":          state,
		"inflight":        s.Inflight(),
		"queued":          s.rt.QueuedTasks(),
		"max_queued":      s.rt.MaxQueuedTasks(),
		"stalled_workers": len(s.rt.StalledWorkers()),
		"workers":         s.rt.Workers(),
		"shape":           s.rt.Shape(),
		"energy_joules":   s.rt.EnergyJoules(),
		"capture":         s.CaptureStatus(),
	})
}

// handleStats is the machine-readable load summary a cluster front end
// (internal/gate) polls to score this node: run-queue depth and
// in-flight pressure against their bounds, the worker-pool shape, and
// the per-class queue-wait/exec latency EWMAs. /v1/healthz stays the
// human-oriented liveness view; this endpoint is the routing signal,
// so it is one flat JSON object with stable keys and no histograms.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, map[string]any{
		"workers":      s.rt.Workers(),
		"shape":        s.rt.Shape(),
		"queued":       s.rt.QueuedTasks(),
		"max_queued":   s.rt.MaxQueuedTasks(),
		"inflight":     s.Inflight(),
		"max_inflight": s.cfg.MaxInflight,
		"draining":     s.draining.Load(),
		"classes":      s.metrics.ClassEWMAs(),
	})
}

// resizeRequest is the POST /v1/resize body: either a total worker
// count (split across c-groups proportionally to the bound machine's
// asymmetry, energy-ranked ties) or an explicit per-group shape.
type resizeRequest struct {
	Workers int   `json:"workers,omitempty"`
	Shape   []int `json:"shape,omitempty"`
}

// handleResize applies an online pool resize and reports the resulting
// shape. Explicit shapes are passed through (amc validates the group
// count and per-group minimums); a bare worker count is apportioned via
// scale.ShapeFor so operators can think in totals.
func (s *Server) handleResize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req resizeRequest
	if err := json.NewDecoder(wire.Bounded(w, r)).Decode(&req); err != nil {
		badBody(w, err)
		return
	}
	counts := req.Shape
	switch {
	case len(counts) > 0 && req.Workers > 0:
		httpError(w, http.StatusBadRequest, "give either workers or shape, not both")
		return
	case len(counts) == 0 && req.Workers <= 0:
		httpError(w, http.StatusBadRequest, "need workers >= 1 or a non-empty shape")
		return
	case len(counts) == 0:
		base := s.rt.BaseArch()
		freqs := make([]float64, base.K())
		for i, g := range base.Groups {
			freqs[i] = g.Freq
		}
		counts = scale.ShapeFor(req.Workers, base.Counts(), freqs, s.rt.EnergyModel())
	}
	start := time.Now()
	if err := s.rt.Resize(counts); err != nil {
		httpError(w, http.StatusBadRequest, "resize: %v", err)
		return
	}
	writeJSON(w, map[string]any{
		"workers":   s.rt.Workers(),
		"shape":     s.rt.Shape(),
		"resize_ms": ms(time.Since(start)),
	})
}

// handleReadyz is readiness: 503 while draining (rotate the instance
// out before the SIGTERM drain finishes) or while any worker is wedged
// on a stalled task (the watchdog can detect but not preempt it — see
// internal/runtime/watchdog.go — so unreadiness is the containment).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	stalled := s.rt.StalledWorkers()
	state, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		state, code = "draining", http.StatusServiceUnavailable
	case len(stalled) > 0:
		state, code = "wedged", http.StatusServiceUnavailable
	}
	writeJSONStatus(w, code, map[string]any{
		"status":          state,
		"stalled_workers": len(stalled),
	})
}

// Drain closes admission (new submissions get 503), waits for every
// admitted job to finalize, then drains the runtime's remaining tasks
// (stragglers of expired jobs included) so a following Runtime.Shutdown
// drops nothing. It returns ctx.Err() if the context fires first; drain
// state persists either way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	// Every job is finalized; let the runtime quiesce (cancelled-but-
	// queued tasks drain instantly when a worker acquires them).
	done := make(chan struct{})
	go func() { s.rt.Wait(); close(done) }()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
		return nil
	}
}

// shed rejects a submission with 429 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, format string, args ...any) {
	s.metrics.Shed()
	w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds())))
	httpError(w, http.StatusTooManyRequests, format, args...)
}

// badBody answers a request whose body could not be read or decoded:
// 413 when it ran past the bound every POST is read through, else 400.
func badBody(w http.ResponseWriter, err error) {
	httpError(w, wire.BodyErrorStatus(err), "bad request body: %v", err)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
