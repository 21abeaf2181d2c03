// Command watsgate is the workload-aware cluster router: one HTTP
// front end proxying the watsd job API across N heterogeneous backends.
// It learns a cluster-level TC table per backend (EWMA of observed
// per-class exec latency), polls queue pressure and readiness, and
// routes each job by a pluggable weighted scorer — the paper's history-
// driven scheduling decision, lifted from cores to machines. Round-
// robin and least-loaded are available as baselines for comparison.
//
// Usage:
//
//	watsgate -listen :8090 -backend fast=http://10.0.0.7:8080 -backend slow=http://10.0.0.8:8080
//	watsgate -listen :8090 -backend http://a:8080 -backend http://b:8080 -policy least-loaded
//	watsgate -listen :8090 -backend n1=http://a:8080 -scorers "class-affinity:4,queue-depth:2,health:1"
//	curl -XPOST localhost:8090/v1/jobs -d '{"workload":"bzip2"}'
//	curl localhost:8090/v1/gate/table
//
// Drive it with cmd/watsload exactly like a single watsd; benchmark the
// policies against each other with cmd/watsaccept -scenario gate.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wats/internal/client"
	"wats/internal/fault"
	"wats/internal/gate"
)

// backendList collects repeated -backend flags. Each value is either
// "name=url" or a bare URL (auto-named b0, b1, ... by position).
type backendList []gate.BackendConf

func (l *backendList) String() string {
	parts := make([]string, len(*l))
	for i, b := range *l {
		parts[i] = b.Name + "=" + b.URL
	}
	return strings.Join(parts, ",")
}

func (l *backendList) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok {
		name, url = fmt.Sprintf("b%d", len(*l)), v
	}
	if name == "" || url == "" {
		return fmt.Errorf("want name=url or a bare URL, got %q", v)
	}
	*l = append(*l, gate.BackendConf{Name: name, URL: url})
	return nil
}

// options is the parsed and validated command line, split from main so
// the validation rules are unit-testable (see main_test.go).
type options struct {
	listen      string
	backends    backendList
	policy      string
	scorers     string
	poll        time.Duration
	alpha       float64
	attempts    int
	timeout     time.Duration
	brThreshold int
	brCooldown  time.Duration
	logFormat   string

	hedge       bool
	hedgeMin    time.Duration
	hedgeMax    time.Duration
	retryBudget float64
	retryBurst  float64
	eject       bool
	ejectFactor float64
	ejectWindow time.Duration
	faultSpec   string
	faultSeed   uint64

	fault   fault.Spec
	gateCfg gate.Config
}

func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.listen, "listen", ":8090", "address to serve the gate API on")
	fs.Var(&o.backends, "backend", "watsd backend as name=url or a bare URL (repeatable, at least one)")
	fs.StringVar(&o.policy, "policy", gate.PolicyWeighted, "routing policy: weighted, round-robin or least-loaded")
	fs.StringVar(&o.scorers, "scorers", "class-affinity:3,queue-depth:2,health:1,ejection:1", "weighted-policy scorer weights")
	fs.DurationVar(&o.poll, "poll-interval", 250*time.Millisecond, "backend stats/readiness poll interval (jittered ±20% per backend)")
	fs.DurationVar(&o.poll, "poll", 250*time.Millisecond, "alias for -poll-interval")
	fs.Float64Var(&o.alpha, "alpha", 0.3, "TC-table EWMA decay per observed job, in (0, 1]")
	fs.IntVar(&o.attempts, "attempts", 0, "max backends tried per job (0 = all of them)")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-attempt proxy timeout")
	fs.IntVar(&o.brThreshold, "breaker-threshold", 8, "consecutive failures that open a backend's breaker (negative disables)")
	fs.DurationVar(&o.brCooldown, "breaker-cooldown", 2*time.Second, "how long an open breaker rejects before the half-open probe")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	fs.BoolVar(&o.hedge, "hedge", true, "hedge slow sync submissions onto a second backend after the class p95")
	fs.DurationVar(&o.hedgeMin, "hedge-min", 5*time.Millisecond, "floor on the adaptive hedge delay")
	fs.DurationVar(&o.hedgeMax, "hedge-max", time.Second, "cap on the adaptive hedge delay (also the cold-start delay)")
	fs.Float64Var(&o.retryBudget, "retry-budget", 0.1, "hedges+re-routes allowed as a fraction of primary traffic (0 = unlimited)")
	fs.Float64Var(&o.retryBurst, "retry-burst", 32, "retry-budget token bucket burst")
	fs.BoolVar(&o.eject, "eject", true, "demote latency-outlier backends to probe-only until they recover")
	fs.Float64Var(&o.ejectFactor, "eject-factor", 3, "ejection threshold: RTT EWMA over cluster median (must be > 1)")
	fs.DurationVar(&o.ejectWindow, "eject-window", 1500*time.Millisecond, "how long the excess must be sustained before ejection")
	fs.StringVar(&o.faultSpec, "fault", "", `deterministic network faults on backend connections, e.g. "latency=0.3:200ms,reset=0.05" (empty = off)`)
	fs.Uint64Var(&o.faultSeed, "fault-seed", 1, "seed for the fault-injection schedule")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// validate applies the cross-field rules and resolves the gate config.
// Everything funnels through gate.New's own validation too; the checks
// here exist to phrase errors in flag terms.
func (o *options) validate() error {
	if len(o.backends) == 0 {
		return fmt.Errorf("need at least one -backend")
	}
	policy := gate.Policy{Kind: o.policy}
	if o.policy == gate.PolicyWeighted {
		w, err := gate.ParseScorers(o.scorers)
		if err != nil {
			return fmt.Errorf("bad -scorers: %v", err)
		}
		policy.Weights = w
	}
	if o.poll <= 0 {
		return fmt.Errorf("bad -poll: %v (must be > 0)", o.poll)
	}
	if o.alpha <= 0 || o.alpha > 1 {
		return fmt.Errorf("bad -alpha: %v (want (0, 1])", o.alpha)
	}
	if o.attempts < 0 {
		return fmt.Errorf("bad -attempts: %d (must be >= 0)", o.attempts)
	}
	if o.logFormat != "text" && o.logFormat != "json" {
		return fmt.Errorf("bad -log-format: %q (want text or json)", o.logFormat)
	}
	if o.retryBudget < 0 {
		return fmt.Errorf("bad -retry-budget: %v (must be >= 0)", o.retryBudget)
	}
	if o.eject && o.ejectFactor <= 1 {
		return fmt.Errorf("bad -eject-factor: %v (must be > 1)", o.ejectFactor)
	}
	spec, err := fault.ParseSpec(o.faultSpec, o.faultSeed)
	if err != nil {
		return fmt.Errorf("bad -fault: %v", err)
	}
	if spec.Tasks() {
		return fmt.Errorf("bad -fault: %q names task faults, and the gate runs no tasks", o.faultSpec)
	}
	o.fault = spec
	o.gateCfg = gate.Config{
		Backends:       o.backends,
		Policy:         policy,
		PollInterval:   o.poll,
		Alpha:          o.alpha,
		MaxAttempts:    o.attempts,
		RequestTimeout: o.timeout,
		Breaker:        client.BreakerConfig{Threshold: o.brThreshold, Cooldown: o.brCooldown},
		Hedge:          gate.HedgeConfig{Enabled: o.hedge, MinDelay: o.hedgeMin, MaxDelay: o.hedgeMax},
		Budget:         gate.BudgetConfig{Ratio: o.retryBudget, Burst: o.retryBurst},
		Eject:          gate.EjectConfig{Enabled: o.eject, Factor: o.ejectFactor, Window: o.ejectWindow},
	}
	if o.fault.Net() {
		in := fault.New(o.fault)
		o.gateCfg.WrapTransport = func(name string, rt http.RoundTripper) http.RoundTripper {
			return fault.NewTransport(rt, in, name)
		}
	}
	// Dry-run the gate config so a bad backend name or policy fails at
	// flag time: build and immediately close a throwaway instance.
	g, err := gate.New(o.gateCfg)
	if err != nil {
		return err
	}
	g.Close()
	return nil
}

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
// bounds a request in flight to a backend.
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

	cfg := opts.gateCfg
	cfg.Logger = logger
	g, err := gate.New(cfg)
	if err != nil {
		logger.Error("gate", "err", err)
		os.Exit(1)
	}
	logger.Info("routing", "backends", opts.backends.String(), "policy", cfg.Policy.String(),
		"poll", opts.poll, "alpha", opts.alpha,
		"hedge", opts.hedge, "retry_budget", opts.retryBudget, "eject", opts.eject)
	if opts.fault.Net() {
		logger.Info("network faults armed on backend connections", "spec", opts.fault.String())
	}

	httpSrv := newHTTPServer(opts.listen, g.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "listen", opts.listen)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		logger.Info("shutting down", "signal", sig.String())
	case err := <-errc:
		g.Close()
		logger.Error("listener", "err", err)
		os.Exit(1)
	}
	_ = httpSrv.Close()
	g.Close()
	fmt.Println("watsgate: bye")
}
