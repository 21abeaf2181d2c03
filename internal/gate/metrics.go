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

// family declares one metric family in the exposition.
func family(sb *strings.Builder, name, kind, help string) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// byClass writes one backend's series of a per-class family, classes
// sorted so that the exposition's order is stable.
func byClass[V uint64 | float64](sb *strings.Builder, name, backend string, m map[string]V) {
	classes := make([]string, 0, len(m))
	for c := range m {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(sb, "%s{backend=%q,class=%q} %v\n", name, backend, c, m[c])
	}
}

// MetricsHandler serves the watsgate_* families in Prometheus text
// exposition format.
func (g *Gate) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sb := &strings.Builder{}
		snap := g.Snapshot() // one copy of every backend's state for all the families below
		perBackend := func(name, kind, help string, val func(BackendSnapshot) uint64) {
			family(sb, name, kind, help)
			for _, b := range snap {
				fmt.Fprintf(sb, "%s{backend=%q} %d\n", name, b.Name, val(b))
			}
		}
		flag := func(on bool) uint64 {
			if on {
				return 1
			}
			return 0
		}

		family(sb, "watsgate_requests_total", "counter", "Requests by proxied API surface.")
		for i := 0; i < apiCount; i++ {
			fmt.Fprintf(sb, "watsgate_requests_total{api=%q} %d\n", apiNames[i], g.requests[i].Load())
		}
		family(sb, "watsgate_routed_total", "counter", "Jobs routed, by backend and task class.")
		for _, b := range snap {
			byClass(sb, "watsgate_routed_total", b.Name, b.RoutedByClass)
		}
		family(sb, "watsgate_outcomes_total", "counter", "Per-backend attempt outcomes.")
		for _, b := range snap {
			for _, o := range outcomeNames {
				fmt.Fprintf(sb, "watsgate_outcomes_total{backend=%q,outcome=%q} %d\n", b.Name, o, b.Outcomes[o])
			}
		}
		perBackend("watsgate_reroutes_total", "counter", "Attempts moved off a backend after a re-routable outcome (transport, 429, 503).",
			func(b BackendSnapshot) uint64 { return b.Reroutes })

		for _, c := range []struct {
			name, help string
			v          *atomic.Uint64
		}{
			{"watsgate_hedges_total", "Hedge attempts launched (defend.go).", &g.hedges},
			{"watsgate_hedge_wins_total", "Hedge attempts whose answer won the race.", &g.hedgeWins},
			{"watsgate_retry_budget_denied_total", "Extra dispatches refused by the empty retry budget.", &g.budgetDenied},
			{"watsgate_reroute_launches_total", "Budgeted re-route dispatches (unary and batch).", &g.rerouteLaunches},
		} {
			family(sb, c.name, "counter", c.help)
			fmt.Fprintf(sb, "%s %d\n", c.name, c.v.Load())
		}

		perBackend("watsgate_backend_ejected", "gauge", "Latency outlier ejection state (1 probe-only, 0 in rotation).",
			func(b BackendSnapshot) uint64 { return flag(b.Ejected) })
		perBackend("watsgate_ejections_total", "counter", "Times each backend was ejected as a latency outlier.",
			func(b BackendSnapshot) uint64 { return b.Ejections })
		perBackend("watsgate_probes_total", "counter", "Probe requests routed to ejected backends.",
			func(b BackendSnapshot) uint64 { return b.Probes })
		family(sb, "watsgate_backend_rtt_ewma_ms", "gauge", "Gate-observed round-trip EWMA by backend and class, milliseconds.")
		for _, b := range snap {
			byClass(sb, "watsgate_backend_rtt_ewma_ms", b.Name, b.RTT)
		}
		perBackend("watsgate_backend_ready", "gauge", "Last readiness poll result (1 ready, 0 not).",
			func(b BackendSnapshot) uint64 { return flag(b.Ready) })
		family(sb, "watsgate_backend_inflight", "gauge", "Gate-side in-flight requests per backend.")
		for _, b := range g.backends {
			fmt.Fprintf(sb, "watsgate_backend_inflight{backend=%q} %d\n", b.name, b.inflight.Load())
		}
		family(sb, "watsgate_class_exec_ewma_ms", "gauge", "Learned cluster TC table: per-backend exec-latency EWMA by class, milliseconds.")
		for _, b := range snap {
			byClass(sb, "watsgate_class_exec_ewma_ms", b.Name, b.TC)
		}

		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = w.Write([]byte(sb.String()))
	})
}
