// The gate's HTTP surface: the watsd job API proxied across the
// cluster. The unary and batch handlers carry the re-route loop —
// transport failures, 429 and 503 move a job (or just the shed items of
// a batch) to the next-best backend with per-item tried-sets, while
// real job outcomes pass through untouched. Async submissions come back
// with the backend name folded into the job id ("fast.j000017"), so the
// poll endpoint can route the GET to the node that owns the record
// without any shared state.
package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wats/internal/client"
	"wats/internal/wire"
)

// Handler returns the gate's HTTP mux.
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", g.handleSubmit)
	mux.HandleFunc("/v1/jobs:batch", g.handleBatch)
	mux.HandleFunc("/v1/jobs/", g.handlePoll)
	mux.HandleFunc("/v1/workloads", g.handleWorkloads)
	mux.HandleFunc("/v1/healthz", g.handleHealthz)
	mux.HandleFunc("/v1/readyz", g.handleReadyz)
	mux.HandleFunc("/v1/gate/table", g.handleTable)
	mux.Handle("/metrics", g.MetricsHandler())
	mux.HandleFunc("/", g.handleRoot)
	return mux
}

func (g *Gate) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		httpError(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
		return
	}
	fmt.Fprintf(w, `watsgate — workload-aware cluster router (%d backends, policy %s)

  POST /v1/jobs       submit a job; routed by learned per-class latency
  POST /v1/jobs:batch submit N jobs; items routed and re-routed individually
  GET  /v1/jobs/{id}  poll an async job (id carries the owning backend)
  GET  /v1/workloads  workload registry (proxied)
  GET  /v1/healthz    per-backend routing state
  GET  /v1/readyz     200 while at least one backend is routable
  GET  /v1/gate/table learned TC table and scorer weights
  GET  /metrics       Prometheus metrics (watsgate_*)
`, len(g.backends), g.cfg.Policy)
}

// ---------------------------------------------------------------------
// Unary submit.

// Trailer headers the gate stamps on every unary answer, so callers
// (watsload, internal/client) can tell gate-level recovery work from
// their own retries.
const (
	HeaderAttempts = "X-Watsgate-Attempts"
	HeaderHedged   = "X-Watsgate-Hedged"
)

// Header values every unary answer carries, shared by all of them:
// net/http only reads a response header's value slice.
var (
	contentTypeJSON = []string{"application/json"}
	oneAttempt      = []string{"1"}
)

// setAttempts stamps HeaderAttempts.
func setAttempts(h http.Header, launched int) {
	if launched == 1 {
		h[HeaderAttempts] = oneAttempt
		return
	}
	h.Set(HeaderAttempts, strconv.Itoa(launched))
}

// attemptResult is one backend attempt's outcome as seen by the hedged
// dispatch loop.
type attemptResult struct {
	b     *backend
	res   client.Result
	err   error
	rttMS float64
	// cancelled: the gate cancelled this attempt itself (it lost the
	// hedge race) — distinct from the caller disappearing.
	cancelled bool
	hedge     bool
}

// handleSubmit is the hedged dispatch loop. One primary attempt is
// launched immediately; for sync submissions an optional hedge fires at
// the next-best backend after hedgeDelay(class) if the primary has not
// answered; transport failures and retryable statuses (429/503)
// re-route while attempts remain. Hedges and re-routes each draw one
// token from the retry budget. The first final answer wins: every other
// in-flight attempt is cancelled, and the server side abandons a
// cancelled request's job before it is accounted completed (DESIGN.md
// §14's at-most-once argument). Cancelled losers still contribute
// *censored* RTT observations — "at least this slow" — which is how a
// gray backend's slowness becomes visible to the ejection evaluator
// even when none of its answers are ever waited for.
func (g *Gate) handleSubmit(w http.ResponseWriter, r *http.Request) {
	g.requests[apiJobs].Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The gate reads the caller's bytes once, bounded, and forwards them
	// verbatim to every attempt; it decodes them only to route. A
	// malformed body is still proxied, so the backend's own validation
	// error passes through.
	body, err := wire.ReadBody(nil, wire.Bounded(w, r), r.ContentLength)
	if err != nil {
		httpError(w, wire.BodyErrorStatus(err), "read body: %v", err)
		return
	}
	req, _ := wire.DecodeJob(body)
	class := g.classFor(req.Workload)

	var triedArr [stackBackends]bool
	tried := triedArr[:]
	if len(g.backends) > len(tried) {
		tried = make([]bool, len(g.backends))
	}
	outc := make(chan attemptResult, g.cfg.MaxAttempts+1)
	cancels := make([]context.CancelFunc, 0, 2)
	launched := 0
	launch := func(b *backend, hedge bool) {
		tried[slices.Index(g.backends, b)] = true
		launched++
		b.countRouted(class)
		b.inflight.Add(1)
		// One context per attempt: the gate cancels it when the attempt
		// loses the race or the caller goes away (the loop below watches
		// for that itself, which is cheaper than hanging every attempt
		// off the request's context), and it carries the attempt's time
		// limit, which the backend client then need not derive again.
		actx, cancel := context.WithTimeout(context.Background(), g.cfg.RequestTimeout)
		cancels = append(cancels, cancel)
		go func() {
			t0 := time.Now()
			res, err := b.cl.SubmitJob(actx, body)
			b.inflight.Add(-1)
			outc <- attemptResult{
				b: b, res: res, err: err, rttMS: float64(time.Since(t0)) / float64(time.Millisecond),
				cancelled: err != nil && actx.Err() == context.Canceled && r.Context().Err() == nil,
				hedge:     hedge,
			}
		}()
	}

	primary := g.pickUntried(class, tried)
	if primary == nil {
		httpError(w, http.StatusBadGateway, "no backend reachable after %d attempts", g.cfg.MaxAttempts)
		return
	}
	g.earnPrimary()
	launch(primary, false)

	// One hedge per request, sync submissions only: an async 202 is an
	// admission that cannot be recalled, so a hedged async pair could
	// both execute.
	var hedgeC <-chan time.Time
	if g.cfg.Hedge.Enabled && !req.Async && g.cfg.MaxAttempts > 1 {
		ht := time.NewTimer(g.hedgeDelay(class))
		defer ht.Stop()
		hedgeC = ht.C
	}

	hedged := false
	var last client.Result
	haveLast := false
	pending := 1
	// reroute moves the job to the next untried backend once nothing else
	// is in flight for it, while attempts and the retry budget last.
	reroute := func() {
		if pending == 0 && launched < g.cfg.MaxAttempts {
			if b := g.pickUntried(class, tried); b != nil && g.takeRetry(false) {
				launch(b, false)
				pending++
			}
		}
	}
	callerGone := r.Context().Done()
	for pending > 0 {
		select {
		case <-callerGone:
			callerGone, hedgeC = nil, nil
			for _, c := range cancels {
				c()
			}
		case <-hedgeC:
			hedgeC = nil
			if launched >= g.cfg.MaxAttempts {
				continue
			}
			b := g.pickUntried(class, tried)
			if b == nil || !g.takeRetry(true) {
				continue
			}
			hedged = true
			launch(b, true)
			pending++
		case o := <-outc:
			pending--
			if o.err != nil {
				// No answer: the elapsed time is a lower bound on what
				// waiting for one would have cost. A hedge loser the gate
				// cancelled itself is nothing more than that.
				g.learn(o.b, class, 0, o.rttMS, true)
				if o.cancelled {
					continue
				}
				o.b.outcomes[outcomeTransport].Add(1)
				o.b.reroutes.Add(1)
				if r.Context().Err() != nil {
					if pending == 0 {
						httpError(w, http.StatusBadGateway, "canceled: %v", o.err)
						return
					}
					continue
				}
				reroute()
				continue
			}
			// One fold per answered attempt: its round trip, and the TC
			// sample a completed job's answer carries.
			execMS := 0.0
			if o.res.StatusCode == http.StatusOK {
				execMS, _ = wire.PeekExecMS(o.res.Body)
			}
			g.learn(o.b, class, execMS, o.rttMS, false)
			o.b.outcomes[outcomeFor(o.res.StatusCode)].Add(1)
			if retryableStatus(o.res.StatusCode) {
				last, haveLast = o.res, true
				o.b.reroutes.Add(1)
				reroute()
				continue
			}
			// First final answer wins: cancel the rest and drain them
			// off-path so their censored RTT still lands.
			for _, c := range cancels {
				c()
			}
			if o.hedge {
				g.hedgeWins.Add(1)
			}
			if pending > 0 {
				go g.drainLosers(outc, pending, class)
			}
			setAttempts(w.Header(), launched)
			if hedged {
				w.Header().Set(HeaderHedged, "1")
			}
			g.finishUnary(w, o.b, req.Async, o.res)
			return
		}
	}
	for _, c := range cancels {
		c()
	}
	setAttempts(w.Header(), launched)
	if haveLast {
		// Every route shed or was draining: pass the last server answer
		// (and its backoff hint) through to the caller.
		if last.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(last.RetryAfter.Seconds())))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(last.StatusCode)
		_, _ = w.Write(last.Body)
		return
	}
	httpError(w, http.StatusBadGateway, "no backend reachable after %d attempts", g.cfg.MaxAttempts)
}

// drainLosers consumes the attempts still in flight after a winner was
// returned, folding their latency into the RTT tables (censored when
// the gate's cancel cut them short).
func (g *Gate) drainLosers(outc <-chan attemptResult, n int, class string) {
	for i := 0; i < n; i++ {
		o := <-outc
		if o.cancelled || o.err != nil {
			g.learn(o.b, class, 0, o.rttMS, true)
			continue
		}
		// Photo-finish: the loser completed before the cancel landed.
		// Count its outcome and full RTT; the response is discarded.
		o.b.outcomes[outcomeFor(o.res.StatusCode)].Add(1)
		g.learn(o.b, class, 0, o.rttMS, false)
	}
}

// finishUnary passes a final backend answer through, with the backend
// name folded into an async 202's job id so the poll endpoint can route
// it back.
func (g *Gate) finishUnary(w http.ResponseWriter, b *backend, async bool, res client.Result) {
	body := res.Body
	if async && res.StatusCode == http.StatusAccepted {
		if rw, ok := prefixID(body, b.name); ok {
			body = rw
		}
	}
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(res.StatusCode)
	_, _ = w.Write(body)
}

func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// ---------------------------------------------------------------------
// Async poll.

func (g *Gate) handlePoll(w http.ResponseWriter, r *http.Request) {
	g.requests[apiPoll].Add(1)
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	name, rest, ok := strings.Cut(id, idSep)
	if !ok {
		httpError(w, http.StatusBadRequest, "job id %q has no backend prefix (want <backend>.<id>)", id)
		return
	}
	// Only one segment of a backend name's alphabet is forwarded: a '/' or
	// ".." would climb to another backend endpoint, a '?' or '#' smuggle a
	// query, whatever id format the backend uses.
	if !nameRE.MatchString(rest) {
		httpError(w, http.StatusBadRequest, "job id %q: %q is not one path segment of [A-Za-z0-9_-]", id, rest)
		return
	}
	var b *backend
	for _, cand := range g.backends {
		if cand.name == name {
			b = cand
			break
		}
	}
	if b == nil {
		httpError(w, http.StatusNotFound, "unknown backend %q in job id %q", name, id)
		return
	}
	res, err := b.cl.Do(r.Context(), http.MethodGet, "/v1/jobs/"+rest, nil)
	if err != nil {
		httpError(w, http.StatusBadGateway, "backend %q unreachable: %v", name, err)
		return
	}
	body := res.Body
	if res.StatusCode == http.StatusOK {
		if rw, ok := prefixID(body, b.name); ok {
			body = rw
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(res.StatusCode)
	_, _ = w.Write(body)
}

// prefixID rewrites the "id" field of a JobView JSON body to
// "<name>.<id>". Decode-and-re-encode keeps it robust against field
// layout; the async path is poll-rate, not job-rate, so the allocation
// is fine.
func prefixID(body []byte, name string) ([]byte, bool) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, false
	}
	var id string
	if err := json.Unmarshal(m["id"], &id); err != nil || id == "" {
		return nil, false
	}
	idJSON, _ := json.Marshal(name + idSep + id)
	m["id"] = idJSON
	out, err := json.Marshal(m)
	if err != nil {
		return nil, false
	}
	return out, true
}

// ---------------------------------------------------------------------
// Batch: per-item routing and re-routing.

// gbItem is one batch slot mid-flight through the rounds loop.
type gbItem struct {
	raw        json.RawMessage // the submitted job body
	class      string          // resolved task class
	tried      []bool          // backends this item already visited, by position
	final      json.RawMessage // non-nil: done, pass through verbatim
	lastRaw    json.RawMessage // last retryable per-item result (passthrough on exhaustion)
	lastCode   int             // last retryable code (whole-batch rejections have no raw)
	retryAfter time.Duration
}

func (g *Gate) handleBatch(w http.ResponseWriter, r *http.Request) {
	g.requests[apiBatch].Add(1)
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(wire.Bounded(w, r)).Decode(&req); err != nil {
		httpError(w, wire.BodyErrorStatus(err), "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: need jobs[]")
		return
	}
	items := make([]gbItem, len(req.Jobs))
	n := len(g.backends)
	tried := make([]bool, len(items)*n) // every item's tried set, side by side
	for i, raw := range req.Jobs {
		// An item that does not decode is still routed, on what did, so
		// that the backend's own validation error comes back in its slot.
		job, _ := wire.DecodeJob(raw)
		items[i] = gbItem{raw: raw, class: g.classFor(job.Workload), tried: tried[i*n : (i+1)*n]}
	}

	for round := 0; round < g.cfg.MaxAttempts; round++ {
		// Group this round's pending items by their picked backend. The
		// groups are disjoint index sets, so the per-group goroutines
		// below mutate items without locking.
		groups := map[*backend][]int{}
		for i := range items {
			it := &items[i]
			if it.final != nil {
				continue
			}
			b := g.pickUntried(it.class, it.tried)
			if b == nil {
				continue
			}
			// Round 0 dispatches are primaries; every later round is a
			// re-route drawing from the same budget as unary re-routes
			// and hedges. A denied item simply keeps its last retryable
			// answer — under budget exhaustion the gate stops chasing,
			// it does not fail harder.
			if round == 0 {
				g.earnPrimary()
			} else if !g.takeRetry(false) {
				continue
			}
			it.tried[slices.Index(g.backends, b)] = true
			groups[b] = append(groups[b], i)
		}
		if len(groups) == 0 {
			break
		}
		var wg sync.WaitGroup
		for b, idxs := range groups {
			wg.Add(1)
			go func(b *backend, idxs []int) {
				defer wg.Done()
				g.subBatch(r, b, items, idxs)
			}(b, idxs)
		}
		wg.Wait()
	}

	// Merge in request order. Items that never reached a final outcome
	// report their last retryable answer (or a synthesized 502 when no
	// backend was even reachable), so the caller's item-level retry
	// logic sees the same codes a single watsd would have produced.
	var maxRA time.Duration
	var buf bytes.Buffer
	buf.WriteString(`{"results":[`)
	for i := range items {
		if i > 0 {
			buf.WriteByte(',')
		}
		it := &items[i]
		switch {
		case it.final != nil:
			buf.Write(it.final)
		case it.lastRaw != nil:
			buf.Write(it.lastRaw)
			if it.retryAfter > maxRA {
				maxRA = it.retryAfter
			}
		case it.lastCode != 0:
			fmt.Fprintf(&buf, `{"code":%d,"error":%q}`, it.lastCode, http.StatusText(it.lastCode))
			if it.retryAfter > maxRA {
				maxRA = it.retryAfter
			}
		default:
			fmt.Fprintf(&buf, `{"code":502,"error":"no backend reachable"}`)
		}
	}
	buf.WriteString("]}\n")
	if maxRA > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(maxRA.Seconds())))
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// subBatch sends the idxs slice of items to b as one sub-batch and
// files each item's result: final answers stick, retryable ones
// (per-item 429/503, whole-batch 429/503, transport failure) stay
// pending for the next round.
func (g *Gate) subBatch(r *http.Request, b *backend, items []gbItem, idxs []int) {
	var body bytes.Buffer
	body.WriteString(`{"jobs":[`)
	for k, i := range idxs {
		if k > 0 {
			body.WriteByte(',')
		}
		body.Write(items[i].raw)
	}
	body.WriteString(`]}`)
	for _, i := range idxs {
		b.countRouted(items[i].class)
	}
	b.inflight.Add(int64(len(idxs)))
	res, err := b.cl.Do(r.Context(), http.MethodPost, "/v1/jobs:batch", body.Bytes())
	b.inflight.Add(-int64(len(idxs)))
	if err != nil {
		b.outcomes[outcomeTransport].Add(uint64(len(idxs)))
		b.reroutes.Add(uint64(len(idxs)))
		return
	}
	if retryableStatus(res.StatusCode) {
		// Whole-batch shed or draining: every item individually pending.
		oc := outcomeFor(res.StatusCode)
		for _, i := range idxs {
			b.outcomes[oc].Add(1)
			b.reroutes.Add(1)
			items[i].lastCode = res.StatusCode
			items[i].retryAfter = res.RetryAfter
		}
		return
	}
	if res.StatusCode != http.StatusOK {
		// The backend rejected the sub-batch outright (400 family): the
		// gate assembled it, so surface the failure as final per item.
		for _, i := range idxs {
			b.outcomes[outcomeBadReq].Add(1)
			code := res.StatusCode
			msg, _ := json.Marshal(string(res.Body))
			items[i].final = json.RawMessage(fmt.Sprintf(`{"code":%d,"error":%s}`, code, msg))
		}
		return
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if json.Unmarshal(res.Body, &resp) != nil || len(resp.Results) != len(idxs) {
		b.outcomes[outcomeTransport].Add(uint64(len(idxs)))
		b.reroutes.Add(uint64(len(idxs)))
		return
	}
	for k, i := range idxs {
		raw := resp.Results[k]
		var peek struct {
			Code   int     `json:"code"`
			ExecMS float64 `json:"exec_ms"`
		}
		_ = json.Unmarshal(raw, &peek)
		b.outcomes[outcomeFor(peek.Code)].Add(1)
		if retryableStatus(peek.Code) {
			b.reroutes.Add(1)
			items[i].lastRaw = raw
			items[i].lastCode = peek.Code
			items[i].retryAfter = res.RetryAfter
			continue
		}
		if peek.Code == http.StatusOK {
			g.learn(b, items[i].class, peek.ExecMS, 0, false)
		}
		items[i].final = raw
	}
}

// ---------------------------------------------------------------------
// Introspection endpoints.

func (g *Gate) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	for _, b := range g.backends {
		if !b.view("", 0, time.Time{}).routable() {
			continue
		}
		res, err := b.cl.Do(r.Context(), http.MethodGet, "/v1/workloads", nil)
		if err != nil {
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.StatusCode)
		_, _ = w.Write(res.Body)
		return
	}
	httpError(w, http.StatusServiceUnavailable, "no backend reachable")
}

// backendView is one backend's row in /v1/healthz and /v1/gate/table.
type backendView struct {
	Name     string             `json:"name"`
	URL      string             `json:"url"`
	Ready    bool               `json:"ready"`
	Breaker  string             `json:"breaker"`
	Inflight int64              `json:"inflight"`
	Queued   int                `json:"queued"`
	Workers  int                `json:"workers"`
	Load     float64            `json:"load"`
	Routed   uint64             `json:"routed"`
	TC       map[string]float64 `json:"tc,omitempty"`
}

func (g *Gate) backendViews(withTC bool) []backendView {
	out := make([]backendView, 0, len(g.backends))
	for _, b := range g.backends {
		r := b.row()
		v := backendView{
			Name: b.name, URL: b.url,
			Ready:    r.ready,
			Breaker:  r.breaker,
			Inflight: b.inflight.Load(),
			Routed:   b.routedTotal(),
		}
		v.Load = loadOf(r.polled, v.Inflight)
		if r.polled != nil {
			v.Queued, v.Workers = r.polled.Queued, r.polled.Workers
		}
		if withTC {
			v.TC = r.tc()
		}
		out = append(out, v)
	}
	return out
}

func (g *Gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"policy":   g.cfg.Policy.String(),
		"backends": g.backendViews(false),
	})
}

func (g *Gate) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, b := range g.backends {
		if b.view("", 0, time.Time{}).routable() {
			writeJSON(w, map[string]any{"status": "ready"})
			return
		}
	}
	httpError(w, http.StatusServiceUnavailable, "no routable backend")
}

// handleTable exposes the learned routing state: the per-backend TC
// tables plus the scorer weights — the cluster-level analogue of the
// runtime's own TC(f, class) introspection.
func (g *Gate) handleTable(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"policy":   g.cfg.Policy.Kind,
		"weights":  g.cfg.Policy.Weights,
		"alpha":    g.cfg.Alpha,
		"backends": g.backendViews(true),
	})
}

// ---------------------------------------------------------------------
// Small response helpers (mirror internal/server's).

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
