// Gate observability: the watsgate_* Prometheus families. The gate is
// a router, so its metrics answer routing questions — who got which
// class, which backends are being avoided, how often a request had to
// be re-routed — rather than the per-job scheduling metrics the
// backends already export under wats_*.
package gate

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
)

// Proxied API surfaces (watsgate_requests_total{api=...}).
const (
	apiJobs = iota
	apiBatch
	apiPoll
	apiCount
)

var apiNames = [apiCount]string{"jobs", "batch", "poll"}

// Per-backend attempt outcomes (watsgate_outcomes_total{outcome=...}).
// ok covers 200 and 202; shed/unavailable are the re-routable server
// answers; transport is a connection-level failure or a local breaker
// rejection; expired/failed/badreq are final job outcomes passed
// through untouched.
const (
	outcomeOK = iota
	outcomeShed
	outcomeUnavailable
	outcomeExpired
	outcomeFailed
	outcomeBadReq
	outcomeTransport
	outcomeCount
)

var outcomeNames = [outcomeCount]string{
	"ok", "shed", "unavailable", "expired", "failed", "badreq", "transport",
}

// outcomeFor maps one proxied attempt's HTTP status to its outcome
// bucket.
func outcomeFor(status int) int {
	switch status {
	case http.StatusOK, http.StatusAccepted:
		return outcomeOK
	case http.StatusTooManyRequests:
		return outcomeShed
	case http.StatusServiceUnavailable:
		return outcomeUnavailable
	case http.StatusGatewayTimeout:
		return outcomeExpired
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
		return outcomeBadReq
	default:
		return outcomeFailed
	}
}

// countRouted bumps the backend's per-class routed counter.
func (b *backend) countRouted(class string) {
	v, ok := b.routedByClass.Load(class)
	if !ok {
		v, _ = b.routedByClass.LoadOrStore(class, new(atomic.Uint64))
	}
	v.(*atomic.Uint64).Add(1)
}

// routedTotal sums routed jobs across classes (for /v1/healthz).
func (b *backend) routedTotal() uint64 {
	var n uint64
	b.routedByClass.Range(func(_, v any) bool {
		n += v.(*atomic.Uint64).Load()
		return true
	})
	return n
}

// MetricsHandler serves the watsgate_* families in Prometheus text
// exposition format.
func (g *Gate) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sb := &strings.Builder{}

		fmt.Fprintf(sb, "# HELP watsgate_requests_total Requests by proxied API surface.\n# TYPE watsgate_requests_total counter\n")
		for i := 0; i < apiCount; i++ {
			fmt.Fprintf(sb, "watsgate_requests_total{api=%q} %d\n", apiNames[i], g.requests[i].Load())
		}

		fmt.Fprintf(sb, "# HELP watsgate_routed_total Jobs routed, by backend and task class.\n# TYPE watsgate_routed_total counter\n")
		for _, b := range g.backends {
			classes := make([]string, 0, 8)
			b.routedByClass.Range(func(k, _ any) bool {
				classes = append(classes, k.(string))
				return true
			})
			sort.Strings(classes)
			for _, c := range classes {
				v, _ := b.routedByClass.Load(c)
				fmt.Fprintf(sb, "watsgate_routed_total{backend=%q,class=%q} %d\n", b.name, c, v.(*atomic.Uint64).Load())
			}
		}

		fmt.Fprintf(sb, "# HELP watsgate_outcomes_total Per-backend attempt outcomes.\n# TYPE watsgate_outcomes_total counter\n")
		for _, b := range g.backends {
			for i := 0; i < outcomeCount; i++ {
				fmt.Fprintf(sb, "watsgate_outcomes_total{backend=%q,outcome=%q} %d\n", b.name, outcomeNames[i], b.outcomes[i].Load())
			}
		}

		fmt.Fprintf(sb, "# HELP watsgate_reroutes_total Attempts moved off a backend after a re-routable outcome (transport, 429, 503).\n# TYPE watsgate_reroutes_total counter\n")
		for _, b := range g.backends {
			fmt.Fprintf(sb, "watsgate_reroutes_total{backend=%q} %d\n", b.name, b.reroutes.Load())
		}

		fmt.Fprintf(sb, "# HELP watsgate_hedges_total Hedge attempts launched (defend.go).\n# TYPE watsgate_hedges_total counter\n")
		fmt.Fprintf(sb, "watsgate_hedges_total %d\n", g.hedges.Load())
		fmt.Fprintf(sb, "# HELP watsgate_hedge_wins_total Hedge attempts whose answer won the race.\n# TYPE watsgate_hedge_wins_total counter\n")
		fmt.Fprintf(sb, "watsgate_hedge_wins_total %d\n", g.hedgeWins.Load())
		fmt.Fprintf(sb, "# HELP watsgate_retry_budget_denied_total Extra dispatches refused by the empty retry budget.\n# TYPE watsgate_retry_budget_denied_total counter\n")
		fmt.Fprintf(sb, "watsgate_retry_budget_denied_total %d\n", g.budgetDenied.Load())
		fmt.Fprintf(sb, "# HELP watsgate_reroute_launches_total Budgeted re-route dispatches (unary and batch).\n# TYPE watsgate_reroute_launches_total counter\n")
		fmt.Fprintf(sb, "watsgate_reroute_launches_total %d\n", g.rerouteLaunches.Load())

		fmt.Fprintf(sb, "# HELP watsgate_backend_ejected Latency outlier ejection state (1 probe-only, 0 in rotation).\n# TYPE watsgate_backend_ejected gauge\n")
		for _, b := range g.backends {
			v := 0
			if b.ejected.Load() {
				v = 1
			}
			fmt.Fprintf(sb, "watsgate_backend_ejected{backend=%q} %d\n", b.name, v)
		}
		fmt.Fprintf(sb, "# HELP watsgate_ejections_total Times each backend was ejected as a latency outlier.\n# TYPE watsgate_ejections_total counter\n")
		for _, b := range g.backends {
			fmt.Fprintf(sb, "watsgate_ejections_total{backend=%q} %d\n", b.name, b.ejections.Load())
		}
		fmt.Fprintf(sb, "# HELP watsgate_probes_total Probe requests routed to ejected backends.\n# TYPE watsgate_probes_total counter\n")
		for _, b := range g.backends {
			fmt.Fprintf(sb, "watsgate_probes_total{backend=%q} %d\n", b.name, b.probes.Load())
		}
		fmt.Fprintf(sb, "# HELP watsgate_backend_rtt_ewma_ms Gate-observed round-trip EWMA by backend and class, milliseconds.\n# TYPE watsgate_backend_rtt_ewma_ms gauge\n")
		for _, b := range g.backends {
			rtt := b.rttTable()
			classes := make([]string, 0, len(rtt))
			for c := range rtt {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				fmt.Fprintf(sb, "watsgate_backend_rtt_ewma_ms{backend=%q,class=%q} %g\n", b.name, c, rtt[c].ms)
			}
		}

		fmt.Fprintf(sb, "# HELP watsgate_backend_ready Last readiness poll result (1 ready, 0 not).\n# TYPE watsgate_backend_ready gauge\n")
		for _, b := range g.backends {
			v := 0
			if b.ready.Load() {
				v = 1
			}
			fmt.Fprintf(sb, "watsgate_backend_ready{backend=%q} %d\n", b.name, v)
		}

		fmt.Fprintf(sb, "# HELP watsgate_backend_inflight Gate-side in-flight requests per backend.\n# TYPE watsgate_backend_inflight gauge\n")
		for _, b := range g.backends {
			fmt.Fprintf(sb, "watsgate_backend_inflight{backend=%q} %d\n", b.name, b.inflight.Load())
		}

		fmt.Fprintf(sb, "# HELP watsgate_class_exec_ewma_ms Learned cluster TC table: per-backend exec-latency EWMA by class, milliseconds.\n# TYPE watsgate_class_exec_ewma_ms gauge\n")
		for _, b := range g.backends {
			tc := b.tcTable()
			classes := make([]string, 0, len(tc))
			for c := range tc {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				fmt.Fprintf(sb, "watsgate_class_exec_ewma_ms{backend=%q,class=%q} %g\n", b.name, c, tc[c])
			}
		}

		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(sb.String()))
	})
}
