// Package gate is watsgate's core: a workload-aware HTTP front end that
// routes the watsd job API across a cluster of heterogeneous backends.
// It lifts the paper's central move — schedule by observed per-class
// execution history, not by static assignment — from cores to machines:
// where the in-process runtime keeps a TC(f, class) table per c-group,
// the gate keeps a cluster-level TC table per backend, learned from the
// per-job latencies (queue_wait_ms/exec_ms) every response already
// carries and decayed by EWMA so a drifting backend is re-learned.
//
// Three signals feed routing, composed by a pluggable weighted scorer
// ("class-affinity:3,queue-depth:2,health:1"):
//
//   - class affinity — the learned exec-latency EWMA for the job's
//     class on each backend, seeded from the backend's own /v1/stats
//     table before the gate has local observations (cold start);
//   - queue pressure — run-queue depth and in-flight counts polled from
//     /v1/stats, sharpened by the gate's own per-backend in-flight
//     count (fresh where the poll is stale);
//   - health — /v1/readyz polls crossed with the per-backend circuit
//     breaker (internal/client), so a dead or draining node is excluded
//     and a recovering one re-enters through a half-open probe.
//
// Round-robin and least-loaded are kept as baseline policies; the
// watsaccept gate scenario measures the weighted scorer against
// both on skewed class mixes (BENCH_gate.json, DESIGN.md §13).
//
// Failure discipline mirrors PR 8's retry rules: transport errors, 429
// and 503 re-route *per item* to the next-best backend; real job
// outcomes (200/500/504) are final — re-running a job that panicked or
// expired would duplicate work a scheduler already accounted.
package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/client"
	"wats/internal/obs"
	"wats/internal/rng"
)

// BackendConf names one watsd node.
type BackendConf struct {
	// Name keys the backend in metrics, async job ids and the TC table.
	// Letters, digits, '_' and '-' only — '.' separates the backend
	// name from the node-local id in gateway job ids.
	Name string
	// URL is the node's base URL, e.g. "http://10.0.0.7:8080".
	URL string
}

// Config configures a Gate.
type Config struct {
	// Backends is the cluster (≥ 1 node). Required.
	Backends []BackendConf
	// Policy picks backends (zero value = the weighted scorer with
	// DefaultScorers).
	Policy Policy
	// PollInterval paces the per-backend /v1/stats + /v1/readyz polls
	// (0 = 250ms).
	PollInterval time.Duration
	// Alpha is the TC-table EWMA decay per observed job (0 = 0.3).
	Alpha float64
	// MaxAttempts bounds how many backends one job may be routed to
	// before the gate gives up (0 = number of backends).
	MaxAttempts int
	// RequestTimeout bounds one proxied attempt (0 = 30s).
	RequestTimeout time.Duration
	// Breaker tunes each backend's circuit breaker (zero = client
	// defaults: threshold 8, cooldown 2s).
	Breaker client.BreakerConfig
	// Hedge tunes hedged dispatch (zero = disabled); see defend.go.
	Hedge HedgeConfig
	// Budget caps hedge + re-route volume (zero = unlimited); see
	// defend.go.
	Budget BudgetConfig
	// Eject tunes latency outlier ejection (zero = disabled); see
	// eject.go.
	Eject EjectConfig
	// WrapTransport, when set, wraps each backend client's HTTP
	// transport — the hook fault.Transport (and instrumentation) attach
	// through. Called once per backend with its name and the stock
	// tuned transport.
	WrapTransport func(backend string, rt http.RoundTripper) http.RoundTripper
	// Logger receives routing-state transitions (nil = slog.Default).
	Logger *slog.Logger
}

// pollTimeout bounds one /v1/stats or /v1/readyz poll round trip.
const pollTimeout = time.Second

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// idSep joins a backend name and its node-local job id into a
// cluster-unique async job id ("fast.j000017"). Backend names exclude
// the separator, so the split is unambiguous.
const idSep = "."

// polled is what routing reads of one backend's last successful
// /v1/stats answer, immutable once stored.
type polled struct {
	Workers  int                      `json:"workers"`
	Queued   int                      `json:"queued"`
	Inflight int                      `json:"inflight"`
	Classes  map[string]obs.ClassEWMA `json:"classes"`
}

// backend is one watsd node plus everything the gate knows about it.
//
// Ownership: request goroutines, the poller and the eject evaluator read
// and write routing state — the fields under mu — only through mu, held
// for one copy out (view, row) or one fold in (learn, the commits of a
// poll, a probe or a transition) and never across a call that can block.
// The counters below stay atomics because only /metrics, Snapshot() and
// Defenses() read them, with one exception: inflight, which an attempt
// raises and lowers from two goroutines and a view reads, and which two
// more lock round trips per attempt would make no more exact. Nothing
// else is shared.
type backend struct {
	name string
	url  string
	cl   *client.Client // routed traffic; carries the circuit breaker

	mu     sync.Mutex
	ready  bool    // last /v1/readyz poll
	polled *polled // last /v1/stats poll, nil before the first
	// table is the cluster-level TC table's row for this backend, with
	// the ejection signal beside it: class → classStat (policy.go).
	table map[string]classStat
	// ejectState is written by the eject evaluator alone; an ejected
	// backend receives probe traffic only, one request per Eject.Probe
	// counted from lastProbe.
	ejectState
	lastProbe time.Time

	// inflight is the gate's own in-flight count to this backend —
	// fresher than the polled number, which lags by up to PollInterval.
	inflight  atomic.Int64
	ejections atomic.Uint64
	probes    atomic.Uint64
	// Counters behind /metrics (watsgate_*). routedByClass maps
	// class → *atomic.Uint64.
	routedByClass sync.Map
	outcomes      [outcomeCount]atomic.Uint64
	reroutes      atomic.Uint64
}

// Gate is the cluster router. Create with New, mount Handler, Close on
// shutdown.
type Gate struct {
	cfg      Config
	weights  weights // cfg.Policy.Weights, resolved once
	log      *slog.Logger
	now      func() time.Time // time.Now outside tests
	backends []*backend
	rr       atomic.Uint64 // round-robin cursor

	// classOf maps workload name → task class, learned from the first
	// backend that answers /v1/workloads (all nodes serve the same
	// registry; a workload the map misses falls back to its own name)
	// and never written again; nil until then.
	classOf atomic.Pointer[map[string]string]

	requests [apiCount]atomic.Uint64

	// Defense state (defend.go): the shared retry budget (nil =
	// unlimited), the per-class windows behind the hedge delay, and the
	// gate-level counters Defenses() reports.
	budget          *retryBudget
	hedgeMu         sync.Mutex
	hedgeWindows    map[string]*latRing
	primaries       atomic.Uint64
	hedges          atomic.Uint64
	hedgeWins       atomic.Uint64
	rerouteLaunches atomic.Uint64
	budgetDenied    atomic.Uint64

	pollHC *http.Client
	stop   chan struct{}
	wg     sync.WaitGroup
}

// New validates cfg, builds the per-backend clients and starts the
// pollers. The gate is immediately routable — before the first poll
// lands, unpolled backends are tried optimistically.
func New(cfg Config) (*Gate, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gate: need at least one backend")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.3
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("gate: alpha %v out of (0, 1]", cfg.Alpha)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = len(cfg.Backends)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.Policy.Kind == "" {
		cfg.Policy = Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}
	}
	if err := cfg.Policy.validate(); err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Hedge.Enabled {
		if cfg.Hedge.Quantile == 0 {
			cfg.Hedge.Quantile = 0.95
		}
		if cfg.Hedge.Quantile <= 0 || cfg.Hedge.Quantile >= 1 {
			return nil, fmt.Errorf("gate: hedge quantile %v out of (0, 1)", cfg.Hedge.Quantile)
		}
		if cfg.Hedge.MinDelay <= 0 {
			cfg.Hedge.MinDelay = 5 * time.Millisecond
		}
		if cfg.Hedge.MaxDelay <= 0 {
			cfg.Hedge.MaxDelay = time.Second
		}
		if cfg.Hedge.MaxDelay < cfg.Hedge.MinDelay {
			return nil, fmt.Errorf("gate: hedge max delay %v below min delay %v", cfg.Hedge.MaxDelay, cfg.Hedge.MinDelay)
		}
	}
	if cfg.Budget.Ratio < 0 {
		return nil, fmt.Errorf("gate: retry budget ratio %v must be >= 0", cfg.Budget.Ratio)
	}
	if cfg.Eject.Enabled {
		if cfg.Eject.Factor == 0 {
			cfg.Eject.Factor = 3
		}
		if cfg.Eject.Factor <= 1 {
			return nil, fmt.Errorf("gate: eject factor %v must be > 1", cfg.Eject.Factor)
		}
		if cfg.Eject.Window <= 0 {
			cfg.Eject.Window = 1500 * time.Millisecond
		}
		if cfg.Eject.Probe <= 0 {
			cfg.Eject.Probe = 250 * time.Millisecond
		}
		if cfg.Eject.MinSamples <= 0 {
			cfg.Eject.MinSamples = 5
		}
		if cfg.Eject.RecoverFactor == 0 {
			cfg.Eject.RecoverFactor = 0.7
		}
		if cfg.Eject.RecoverFactor <= 0 || cfg.Eject.RecoverFactor > 1 {
			return nil, fmt.Errorf("gate: eject recover factor %v out of (0, 1]", cfg.Eject.RecoverFactor)
		}
	}
	g := &Gate{
		cfg:          cfg,
		weights:      resolveWeights(cfg.Policy),
		log:          cfg.Logger,
		now:          time.Now,
		hedgeWindows: map[string]*latRing{},
		budget:       newRetryBudget(cfg.Budget),
		pollHC:       &http.Client{Timeout: pollTimeout},
		stop:         make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, bc := range cfg.Backends {
		if !nameRE.MatchString(bc.Name) {
			return nil, fmt.Errorf("gate: bad backend name %q (want [A-Za-z0-9_-]+)", bc.Name)
		}
		if seen[bc.Name] {
			return nil, fmt.Errorf("gate: duplicate backend name %q", bc.Name)
		}
		seen[bc.Name] = true
		if bc.URL == "" {
			return nil, fmt.Errorf("gate: backend %q has no URL", bc.Name)
		}
		ccfg := client.Config{
			BaseURL:        bc.URL,
			RequestTimeout: cfg.RequestTimeout,
			// MaxRetries 0: the gate's routing loop IS the retry layer —
			// a retryable outcome re-routes to a different backend
			// instead of hammering the same one.
			MaxRetries: 0,
			Breaker:    cfg.Breaker,
		}
		if cfg.WrapTransport != nil {
			ccfg.HTTPClient = &http.Client{Transport: cfg.WrapTransport(bc.Name, client.DefaultTransport())}
		}
		cl, err := client.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("gate: backend %q: %w", bc.Name, err)
		}
		g.backends = append(g.backends, &backend{name: bc.Name, url: bc.URL, cl: cl, table: map[string]classStat{}})
	}
	for i, b := range g.backends {
		g.wg.Add(1)
		go g.pollLoop(b, uint64(i))
	}
	if cfg.Eject.Enabled {
		g.wg.Add(1)
		go g.ejectLoop()
	}
	return g, nil
}

// Close stops the pollers.
func (g *Gate) Close() {
	close(g.stop)
	g.wg.Wait()
}

// BackendSnapshot is a point-in-time copy of one backend's routing
// state and counters — the programmatic face of /v1/healthz and
// /metrics, for demos and acceptance checks that hold the Gate
// in-process.
type BackendSnapshot struct {
	Name          string             `json:"name"`
	Ready         bool               `json:"ready"`
	Breaker       string             `json:"breaker"`
	BreakerOpens  int64              `json:"breaker_opens"`
	Routed        uint64             `json:"routed"`
	RoutedByClass map[string]uint64  `json:"routed_by_class"`
	Reroutes      uint64             `json:"reroutes"`
	Outcomes      map[string]uint64  `json:"outcomes"`
	TC            map[string]float64 `json:"tc"`
	// Ejection state (eject.go): RTT is the gate-observed round-trip
	// EWMA per class in milliseconds.
	Ejected   bool               `json:"ejected"`
	Ejections uint64             `json:"ejections"`
	Probes    uint64             `json:"probes"`
	RTT       map[string]float64 `json:"rtt"`
}

// Snapshot copies every backend's routing state in configuration order.
func (g *Gate) Snapshot() []BackendSnapshot {
	out := make([]BackendSnapshot, 0, len(g.backends))
	for _, b := range g.backends {
		r := b.row()
		s := BackendSnapshot{
			Name:          b.name,
			Ready:         r.ready,
			Breaker:       r.breaker,
			BreakerOpens:  b.cl.Stats().BreakerOpens,
			Routed:        b.routedTotal(),
			RoutedByClass: map[string]uint64{},
			Reroutes:      b.reroutes.Load(),
			Outcomes:      map[string]uint64{},
			TC:            r.tc(),
			Ejected:       r.ejected,
			Ejections:     b.ejections.Load(),
			Probes:        b.probes.Load(),
			RTT:           map[string]float64{},
		}
		for class, e := range r.table {
			if e.rttN > 0 {
				s.RTT[class] = e.rttMS
			}
		}
		b.routedByClass.Range(func(k, v any) bool {
			s.RoutedByClass[k.(string)] = v.(*atomic.Uint64).Load()
			return true
		})
		for i := 0; i < outcomeCount; i++ {
			if v := b.outcomes[i].Load(); v > 0 {
				s.Outcomes[outcomeNames[i]] = v
			}
		}
		out = append(out, s)
	}
	return out
}

// Backends returns the backend names in configuration order.
func (g *Gate) Backends() []string {
	out := make([]string, len(g.backends))
	for i, b := range g.backends {
		out[i] = b.name
	}
	return out
}

// WaitReady blocks until at least one backend has answered a readiness
// poll, or ctx fires. Demos and tests use it to avoid racing the first
// poll; serving before it returns is safe (unpolled backends are tried
// optimistically).
func (g *Gate) WaitReady(ctx context.Context) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, b := range g.backends {
			if b.view("", 0, time.Time{}).ready {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// pollLoop keeps one backend's readiness, load stats and (once) the
// workload→class map fresh. Polls use a plain HTTP client, not the
// routed one: a probe against a dead node must not consume the routing
// breaker's failure budget — the breaker counts real traffic.
//
// Each interval is jittered ±20% from a per-loop deterministic stream:
// N gates (or one gate's N pollers) started together would otherwise
// phase-lock and hit every backend in the same instant, turning the
// poll itself into a synchronized micro-burst.
func (g *Gate) pollLoop(b *backend, idx uint64) {
	defer g.wg.Done()
	g.pollOnce(b)
	jit := rng.New(idx + 1)
	for {
		d := time.Duration(float64(g.cfg.PollInterval) * (0.8 + 0.4*jit.Float64()))
		t := time.NewTimer(d)
		select {
		case <-g.stop:
			t.Stop()
			return
		case <-t.C:
			g.pollOnce(b)
		}
	}
}

func (g *Gate) pollOnce(b *backend) {
	ready := false
	if resp, err := g.pollHC.Get(b.url + "/v1/readyz"); err == nil {
		ready = resp.StatusCode == http.StatusOK
		resp.Body.Close()
	}
	b.mu.Lock()
	wasReady := b.ready
	b.ready = ready
	b.mu.Unlock()
	if ready != wasReady {
		g.log.Info("backend readiness changed", "backend", b.name, "ready", ready)
	}
	if !ready {
		return
	}
	if resp, err := g.pollHC.Get(b.url + "/v1/stats"); err == nil {
		var p polled
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&p) == nil {
			b.mu.Lock()
			b.polled = &p
			b.mu.Unlock()
		}
		resp.Body.Close()
	}
	if g.classOf.Load() == nil {
		if resp, err := g.pollHC.Get(b.url + "/v1/workloads"); err == nil {
			var ws []struct {
				Name  string `json:"name"`
				Class string `json:"class"`
			}
			if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&ws) == nil && len(ws) > 0 {
				m := make(map[string]string, len(ws))
				for _, w := range ws {
					m[w.Name] = w.Class
				}
				g.classOf.Store(&m)
			}
			resp.Body.Close()
		}
	}
}

// classFor resolves a workload name to its task class; unknown names
// map to themselves (every builtin's class equals its name, and a
// stable wrong key still learns a consistent table).
func (g *Gate) classFor(workload []byte) string {
	if m := g.classOf.Load(); m != nil {
		if c, ok := (*m)[string(workload)]; ok {
			return c
		}
	}
	return string(workload)
}

// learn folds one answered attempt into the backend's row for class,
// and a full round trip into the class's hedge window. execMS is the
// backend-reported exec latency (EWMA, Config.Alpha; 0 = the answer
// carried none) and ms the gate-observed round trip (0 = not timed),
// both in milliseconds. A censored round trip — the attempt was
// cancelled or failed after that long — only ratchets the estimate
// upward: a lower bound below the current estimate carries no
// information.
func (g *Gate) learn(b *backend, class string, execMS, ms float64, censored bool) {
	if class != "" && (execMS > 0 || ms > 0) {
		b.mu.Lock()
		s := b.table[class]
		if execMS > 0 {
			s.execMS = ewma(s.execMS, execMS, g.cfg.Alpha, s.execMS == 0)
		}
		if ms > 0 && !(censored && s.rttN > 0 && ms <= s.rttMS) {
			s.rttMS = ewma(s.rttMS, ms, g.cfg.Alpha, s.rttN == 0)
			s.rttN++
		}
		b.table[class] = s
		b.mu.Unlock()
	}
	if ms > 0 && !censored && g.cfg.Hedge.Enabled {
		g.recordLat(class, ms)
	}
}

// ewma folds sample into old by alpha; a first sample is taken as it is.
func ewma(old, sample, alpha float64, first bool) float64 {
	if first {
		return sample
	}
	return (1-alpha)*old + alpha*sample
}

// view copies out what one pick needs to know about the backend (see
// the type, policy.go). probeEvery is Eject.Probe, 0 with the evaluator
// off; class "" asks for no TC.
func (b *backend) view(class string, probeEvery time.Duration, now time.Time) view {
	b.mu.Lock()
	v := view{
		ready:    b.ready,
		ejected:  b.ejected,
		probeDue: probeEvery > 0 && b.ejected && now.Sub(b.lastProbe) >= probeEvery,
		tc:       b.table[class].execMS,
		load:     loadOf(b.polled, b.inflight.Load()),
	}
	if v.tc == 0 && b.polled != nil {
		// The backend's own /v1/stats table is the cold-start seed.
		v.tc = b.polled.Classes[class].ExecMS
	}
	b.mu.Unlock()
	v.breaker = b.cl.BreakerState()
	return v
}

// row copies out the backend's whole routing state (see the type,
// policy.go).
func (b *backend) row() row {
	b.mu.Lock()
	r := row{ready: b.ready, polled: b.polled, table: make(map[string]classStat, len(b.table)), ejectState: b.ejectState}
	for class, s := range b.table {
		r.table[class] = s
	}
	b.mu.Unlock()
	r.breaker = b.cl.BreakerState()
	return r
}

// tc is the learned TC table: class → exec EWMA in milliseconds.
func (r row) tc() map[string]float64 {
	out := make(map[string]float64, len(r.table))
	for class, s := range r.table {
		if s.execMS > 0 {
			out[class] = s.execMS
		}
	}
	return out
}

// loadOf is a backend's queue-pressure estimate, normalized per worker:
// (run-queue depth + in-flight jobs) / workers. The polled in-flight is
// up to PollInterval stale, so the gate's own count takes over when it
// is higher (it cannot be lower for traffic the gate itself sent).
// Both the least-loaded baseline and the weighted queue-depth scorer
// use this signal: counting every in-flight job (not just work beyond
// the worker count) is what lets the gate spill a class off its
// affinity-preferred backend before a queue has formed there, which
// matters because the poll cadence is too coarse to see short bursts.
func loadOf(p *polled, local int64) float64 {
	if p == nil {
		return float64(local)
	}
	workers := float64(max(p.Workers, 1))
	return (float64(p.Queued) + float64(max(int64(p.Inflight), local))) / workers
}
