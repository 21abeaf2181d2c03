// Command watsd is the network-facing job daemon over the live WATS
// runtime: kernel workloads as invocable HTTP job types, per-job
// deadlines, admission control with load shedding, the full debug mux
// (Prometheus metrics with per-job latency histograms, pprof, scheduler
// snapshot, Chrome trace) on the same listener, online worker-pool
// resizing (POST /v1/resize and an optional autoscaler), and graceful
// drain on SIGTERM — stop admitting, finish in-flight jobs, quiesce the
// runtime, then shut down.
//
// Usage:
//
//	watsd -listen :8080
//	watsd -listen :8080 -fast 2 -slow 2 -policy WATS -max-inflight 64
//	watsd -listen :8080 -autoscale -min-workers 2 -max-workers 16
//	watsd -listen :8080 -fault panic=0.01,delay=0.02:2ms -stall-threshold 5s
//	watsd -listen :8080 -fault latency=1:200ms,drip=0.5:50ms:64,flap=5s:10s
//	curl -XPOST localhost:8080/v1/jobs -d '{"workload":"bzip2"}'
//	curl -XPOST localhost:8080/v1/resize -d '{"workers":8}'
//	curl localhost:8080/v1/version
//
// Drive it with cmd/watsload for an open-loop service benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wats/internal/amc"
	"wats/internal/fault"
	"wats/internal/obs"
	"wats/internal/runtime"
	"wats/internal/scale"
	"wats/internal/sched"
	"wats/internal/server"
	"wats/internal/trace"
)

// options is the parsed and validated command line. Parsing is split
// from main so the validation rules are unit-testable (see main_test.go)
// and a bad flag is always a clean usage error, never a value passed
// through to the runtime.
type options struct {
	listen       string
	fast, slow   int
	policy       string
	noEmu        bool
	maxInflight  int
	maxQueued    int
	deadline     time.Duration
	drainTimeout time.Duration
	faultSpec    string
	faultSeed    uint64
	stallThresh  time.Duration

	autoscale    bool
	minWorkers   int
	maxWorkers   int
	autoscaleSLO time.Duration

	capture   string
	logFormat string

	arch  *amc.Arch
	kind  sched.Kind
	fault fault.Spec
}

// parseOptions registers watsd's flags on fs, parses args and validates
// everything cross-field. On error the returned message is a usage
// error for the operator; nothing has been applied yet.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.listen, "listen", ":8080", "address to serve the job API and debug mux on")
	fs.IntVar(&o.fast, "fast", 2, "number of fast workers")
	fs.IntVar(&o.slow, "slow", 2, "number of slow workers (0.4x speed)")
	fs.StringVar(&o.policy, "policy", "WATS", "scheduling policy kind (Share|Cilk|PFT|WATS|WATS-NP|WATS-Mem; the snatching RTS and WATS-TS cannot run live)")
	fs.BoolVar(&o.noEmu, "no-speed-emulation", false, "disable the asymmetry emulation stalls (serve at raw core speed)")
	fs.IntVar(&o.maxInflight, "max-inflight", 64, "admitted in-flight job bound; beyond it submissions get 429")
	fs.IntVar(&o.maxQueued, "max-queued", 0, "runtime spawn-backpressure depth, reused as the shed threshold (0 = 4096)")
	fs.DurationVar(&o.deadline, "default-deadline", 0, "deadline applied to jobs that set none (0 = none)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before giving up")
	fs.StringVar(&o.faultSpec, "fault", "", `deterministic fault injection in task bodies and on the job API, e.g. "panic=0.01,delay=0.05:2ms" or "latency=1:200ms,drip=0.5:50ms:64,flap=5s:10s" (empty = off)`)
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "seed for the fault-injection schedule")
	fs.DurationVar(&o.stallThresh, "stall-threshold", 10*time.Second, "watchdog stall threshold for in-flight tasks (must be > 0)")
	fs.BoolVar(&o.autoscale, "autoscale", false, "grow/shrink the worker pool online between -min-workers and -max-workers")
	fs.IntVar(&o.minWorkers, "min-workers", 2, "autoscale lower bound on total workers (>= number of c-groups)")
	fs.IntVar(&o.maxWorkers, "max-workers", 16, "autoscale upper bound on total workers")
	fs.DurationVar(&o.autoscaleSLO, "autoscale-slo", 0, "p99 job-latency SLO the autoscaler defends (0 = backlog-only scaling)")
	fs.StringVar(&o.capture, "capture", "", "start a decision-ledger capture to this NDJSON path at boot (replay with watstwin)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// validate applies the cross-field rules and resolves the derived
// fields (arch, policy kind, fault spec).
func (o *options) validate() error {
	o.kind = sched.Kind(o.policy)
	s, err := sched.NewStrategy(o.kind)
	if err == nil {
		err = sched.CheckLive(s)
	}
	if err != nil {
		return fmt.Errorf("bad -policy: %v", err)
	}
	// amc.New, not MustNew: -fast/-slow are operator input, and a bad
	// value ("-fast 0 -slow 0") should be a clean usage error, not a
	// panic with a stack trace.
	arch, err := amc.New("watsd",
		amc.CGroup{Freq: 2.0, N: o.fast}, amc.CGroup{Freq: 0.8, N: o.slow})
	if err != nil {
		return fmt.Errorf("bad -fast/-slow: %v", err)
	}
	o.arch = arch
	if o.stallThresh <= 0 {
		return fmt.Errorf("bad -stall-threshold: %v (must be > 0)", o.stallThresh)
	}
	spec, err := fault.ParseSpec(o.faultSpec, o.faultSeed)
	if err != nil {
		return fmt.Errorf("bad -fault: %v", err)
	}
	o.fault = spec
	if o.minWorkers <= 0 {
		return fmt.Errorf("bad -min-workers: %d (must be > 0)", o.minWorkers)
	}
	if o.maxWorkers <= 0 {
		return fmt.Errorf("bad -max-workers: %d (must be > 0)", o.maxWorkers)
	}
	if o.minWorkers > o.maxWorkers {
		return fmt.Errorf("-min-workers (%d) > -max-workers (%d)", o.minWorkers, o.maxWorkers)
	}
	if o.autoscale && o.minWorkers < o.arch.K() {
		return fmt.Errorf("-min-workers %d below the %d c-groups (every group keeps one worker)", o.minWorkers, o.arch.K())
	}
	if o.autoscaleSLO < 0 {
		return fmt.Errorf("bad -autoscale-slo: %v (must be >= 0)", o.autoscaleSLO)
	}
	if o.maxInflight <= 0 {
		return fmt.Errorf("bad -max-inflight: %d (must be > 0)", o.maxInflight)
	}
	if o.logFormat != "text" && o.logFormat != "json" {
		return fmt.Errorf("bad -log-format: %q (want text or json)", o.logFormat)
	}
	return nil
}

// newLogger builds the structured logger behind -log-format: text for
// operators at a terminal, JSON for log pipelines (capture start/stop,
// resizes and shed events become machine-parseable alongside the ledger).
func newLogger(format string) *slog.Logger {
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		h = slog.NewTextHandler(os.Stderr, nil)
	}
	return slog.New(h)
}

// How long a peer may hold a connection open without sending its request
// headers, and how long a keep-alive connection may sit idle. Neither
// bounds a running job or a wats-stream/1 connection.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 120 * time.Second
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	opts, err := parseOptions(flag.CommandLine, os.Args[1:])
	if err != nil {
		newLogger("text").Error("bad flags", "err", err)
		os.Exit(1)
	}
	logger := newLogger(opts.logFormat)
	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		logger.Error("listener", "err", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, opts, ln, logger); err != nil {
		logger.Error("exit", "err", err)
		os.Exit(1)
	}
}

// run serves on ln until ctx is done (SIGTERM or SIGINT in main), then
// drains: stop admitting, finish in-flight jobs, seal a running capture,
// quiesce the runtime. It returns nil only when the drain left nothing in
// flight; ln is closed when it returns.
func run(ctx context.Context, opts *options, ln net.Listener, logger *slog.Logger) error {
	defer ln.Close()
	// One injector plans both action sets. The runtime gets it only for
	// task clauses, so a network-only spec keeps its single nil-check.
	var injector, taskFaults *fault.Injector
	if opts.fault.Enabled() {
		injector = fault.New(opts.fault)
		logger.Info("fault injection armed", "spec", opts.fault.String())
	}
	if opts.fault.Tasks() {
		taskFaults = injector
	}
	rt, err := runtime.New(runtime.Config{
		Arch:                  opts.arch,
		Policy:                opts.kind,
		Seed:                  7,
		DisableSpeedEmulation: opts.noEmu,
		MaxQueuedTasks:        opts.maxQueued,
		Obs:                   obs.NewTracer(opts.arch.NumCores(), 0),
		Fault:                 taskFaults,
		StallThreshold:        opts.stallThresh,
	})
	if err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	defer rt.Shutdown() // idempotent: the drain below shuts it down in order
	srv, err := server.New(server.Config{
		Runtime:         rt,
		MaxInflight:     opts.maxInflight,
		DefaultDeadline: opts.deadline,
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if opts.capture != "" {
		stats, err := srv.StartCapture(trace.CaptureConfig{Path: opts.capture})
		if err != nil {
			return fmt.Errorf("capture: %w", err)
		}
		logger.Info("capture started", "path", stats.Path)
	}

	var scaler *scale.Runner
	if opts.autoscale {
		freqs := make([]float64, opts.arch.K())
		for i, g := range opts.arch.Groups {
			freqs[i] = g.Freq
		}
		ctl, err := scale.NewController(scale.Config{
			Min:        opts.minWorkers,
			Max:        opts.maxWorkers,
			Weights:    opts.arch.Counts(),
			Freqs:      freqs,
			Energy:     rt.EnergyModel(),
			LatencySLO: opts.autoscaleSLO,
		})
		if err != nil {
			return fmt.Errorf("autoscale: %w", err)
		}
		// The rolling window, not the cumulative p99: the SLO veto must
		// lift once a burst's tail ages out, or the pool never shrinks.
		scaler = scale.NewRunner(ctl, rt, 0, srv.Metrics().RecentP99Latency)
		scaler.Start()
		logger.Info("autoscale on", "min", ctl.Config().Min, "max", ctl.Config().Max, "slo", opts.autoscaleSLO)
	}

	b := server.Build()
	logger.Info("starting", "version", b.Version, "commit", b.Commit, "go", b.GoVersion)
	logger.Info("serving", "listen", ln.Addr().String(), "arch", opts.arch.String(), "policy", string(opts.kind),
		"max_inflight", opts.maxInflight, "shed_depth", rt.MaxQueuedTasks())

	// Middleware returns the handler as it is without network clauses.
	httpSrv := newHTTPServer(opts.listen, fault.Middleware(srv.Handler(), injector))
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		logger.Info("draining", "inflight", srv.Inflight())
	case err := <-errc:
		if scaler != nil {
			scaler.Stop()
		}
		return fmt.Errorf("listener: %w", err)
	}

	dctx, cancel := context.WithTimeout(context.Background(), opts.drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if drainErr != nil {
		logger.Warn("drain incomplete", "err", drainErr, "inflight", srv.Inflight())
	} else {
		logger.Info("drained", "msg", "all in-flight jobs finished")
	}
	// Stop the listener after the drain so late pollers of async jobs
	// still get answers while jobs finish; stop the autoscaler before the
	// workers so no resize races the shutdown.
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	_ = httpSrv.Shutdown(shutCtx)
	if scaler != nil {
		scaler.Stop()
		logger.Info("autoscaler stopped", "resizes", scaler.Resizes(), "shape", fmt.Sprint(rt.Shape()),
			"workers", rt.Workers(), "retired", rt.RetiredWorkers())
	}
	// Seal a still-running capture (started via -capture or the HTTP API)
	// before the workers stop, so the footer carries the final energy and
	// task totals of the drained run.
	if srv.CaptureStatus() != nil {
		if stats, err := srv.StopCapture(); err != nil {
			logger.Warn("capture stop", "err", err)
		} else {
			logger.Info("capture sealed", "path", stats.Path, "decisions", stats.Decisions,
				"ends", stats.Ends, "dropped", stats.Dropped, "bytes", stats.Bytes)
		}
	}
	rt.Shutdown()
	c := srv.Metrics().Counters()
	logger.Info("final", "submitted", c.Submitted, "completed", c.Completed, "expired", c.Expired,
		"failed", c.Failed, "panicked", c.Panicked, "shed", c.Shed,
		"tasks_cancelled", rt.Cancelled(), "panics_recovered", rt.Panics(), "energy_joules", rt.EnergyJoules())
	if injector != nil {
		fc := injector.Counts()
		logger.Info("faults injected", "panics", fc.Panics, "delays", fc.Delays, "cancels", fc.Cancels,
			"latencies", fc.Latencies, "drips", fc.Drips, "resets", fc.Resets, "blackholes", fc.Blackholes)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Println("watsd: bye")
	return nil
}
