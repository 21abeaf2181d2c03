// Package client is the resilient HTTP client for watsd job services:
// retries with exponential backoff and jitter that honor the server's
// Retry-After hint, per-attempt timeouts, and a half-open circuit
// breaker — the well-behaved counterpart to the server's admission
// control. A shedding server tells clients when to come back (429 +
// Retry-After); this client actually listens, which is what keeps an
// open-loop fleet from turning a transient overload into a retry storm.
//
// Retry policy: transport errors, 429 (shed) and 503 (draining or
// overloaded) are retryable; 4xx request errors and job outcomes
// (200/500/504) are not — a job that panicked or missed its deadline
// would do so again, and retrying it duplicates work the scheduler
// already accounted. The circuit breaker counts only transport errors
// and 503s (a server that is down or draining), not 429s (flow control
// from a healthy server) nor attempts the caller cancelled: after
// Breaker.Threshold consecutive failures it opens and rejects submissions
// locally for Breaker.Cooldown, then lets one probe through (half-open)
// and closes again on success.
//
// All jitter flows through internal/rng, so a seeded client retries on
// a reproducible schedule in tests.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/rng"
	"wats/internal/wire"
)

// Config configures a Client. The zero value of every field has a sane
// default; only BaseURL is required.
type Config struct {
	// BaseURL is the watsd base URL, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient executes the attempts (nil = a client with a pooled
	// transport and no overall timeout; per-attempt timeouts come from
	// RequestTimeout).
	HTTPClient *http.Client
	// RequestTimeout bounds each attempt (0 = 30s).
	RequestTimeout time.Duration
	// MaxRetries is the retry budget per request beyond the first
	// attempt (0 = no retries; a plain client).
	MaxRetries int
	// BaseBackoff is the first retry's backoff before jitter (0 = 50ms);
	// subsequent retries double it up to MaxBackoff (0 = 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxRetryAfter caps how long a server Retry-After hint is honored
	// (0 = 10s), so a misconfigured server cannot park clients forever.
	MaxRetryAfter time.Duration
	// Seed seeds the jitter stream (deterministic retry schedules in
	// tests; 0 = 1).
	Seed uint64
	// Breaker configures the circuit breaker.
	Breaker BreakerConfig
}

// BreakerConfig tunes the circuit breaker.
type BreakerConfig struct {
	// Threshold consecutive breaker-eligible failures (transport, 503)
	// open the breaker (0 = 8; negative disables the breaker).
	Threshold int
	// Cooldown is how long the breaker stays open before letting a
	// half-open probe through (0 = 2s).
	Cooldown time.Duration
}

// ErrBreakerOpen is returned (wrapped) when the circuit breaker rejects
// a request locally without attempting it.
var ErrBreakerOpen = errors.New("client: circuit breaker open")

// Result is the final outcome of one request after retries.
type Result struct {
	// StatusCode is the final HTTP status.
	StatusCode int
	// Body is the final response body.
	Body []byte
	// Attempts is how many HTTP attempts were made (≥ 1).
	Attempts int
	// Retried reports whether any retry happened (Attempts > 1) — the
	// flag watsload uses to report shed-then-retried latency separately.
	Retried bool
	// RetryAfter is the final response's Retry-After hint (0 = none) —
	// a proxy that gives up re-routing a shed request passes it through
	// to its own caller.
	RetryAfter time.Duration
	// GateAttempts is how many backend attempts a watsgate front end
	// made to produce the final response (X-Watsgate-Attempts header;
	// 0 = the target was not a gate). GateAttempts > 1 means the gate
	// re-routed or hedged on this request's behalf — work that never
	// shows up in Attempts, which only counts this client's own tries.
	GateAttempts int
	// GateHedged reports whether the gate hedged the final request
	// (X-Watsgate-Hedged header).
	GateHedged bool
}

// Stats is a point-in-time copy of the client's counters.
type Stats struct {
	Requests          int64 `json:"requests"`
	Attempts          int64 `json:"attempts"`
	Retries           int64 `json:"retries"`
	RetryAfterHonored int64 `json:"retry_after_honored"`
	BreakerOpens      int64 `json:"breaker_opens"`
	BreakerRejects    int64 `json:"breaker_rejects"`
}

// Client is a resilient watsd client; safe for concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client
	br  *breaker
	// jobsReq is the POST /v1/jobs request every submission attempt
	// copies (see newRequest); nil when BaseURL does not parse.
	jobsReq *http.Request

	jmu    sync.Mutex
	jitter *rng.Source

	requests          atomic.Int64
	attempts          atomic.Int64
	retries           atomic.Int64
	retryAfterHonored atomic.Int64
	breakerRejects    atomic.Int64
}

// New builds a Client over cfg, applying defaults.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: Config.BaseURL is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: DefaultTransport()}
	}
	c := &Client{
		cfg:    cfg,
		hc:     hc,
		br:     newBreaker(cfg.Breaker),
		jitter: rng.New(cfg.Seed),
	}
	// A BaseURL that does not parse is reported by the attempt that
	// needs it, as it always was.
	if req, err := http.NewRequest(http.MethodPost, cfg.BaseURL+jobsPath, nil); err == nil {
		req.Header.Set("Content-Type", "application/json")
		c.jobsReq = req
	}
	return c, nil
}

// jobsPath is the submission endpoint, the one request a client sends
// at job rate.
const jobsPath = "/v1/jobs"

// DefaultTransport returns the tuned transport New installs when
// Config.HTTPClient is nil. Explicit connection-reuse tuning: the
// stdlib default transport only keeps 2 idle conns per host, so a
// watsload fleet hammering one watsd would churn TCP handshakes.
// Keep-alives on, a deep idle pool pinned to the (single) target host,
// and a long idle timeout so open-loop bursts separated by quiet
// periods still reuse connections. Exported so wrappers (fault
// injectors, instrumentation) can compose with the same tuning:
// &http.Client{Transport: wrap(client.DefaultTransport())}.
func DefaultTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
		IdleConnTimeout:     90 * time.Second,
		DisableKeepAlives:   false,
		DisableCompression:  true,
		WriteBufferSize:     64 << 10,
		ReadBufferSize:      64 << 10,
	}
}

// Breaker states as reported by BreakerState.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerState reports the circuit breaker's current disposition
// without mutating it: "closed" (attempts flow), "open" (attempts are
// rejected locally), or "half-open" (the next attempt is — or is about
// to become — the single recovery probe). A router uses this to score
// a backend's health before committing a request to it.
func (c *Client) BreakerState() string { return c.br.currentState() }

// BaseURL returns the configured backend base URL.
func (c *Client) BaseURL() string { return c.cfg.BaseURL }

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:          c.requests.Load(),
		Attempts:          c.attempts.Load(),
		Retries:           c.retries.Load(),
		RetryAfterHonored: c.retryAfterHonored.Load(),
		BreakerOpens:      c.br.opens.Load(),
		BreakerRejects:    c.breakerRejects.Load(),
	}
}

// SubmitJob POSTs one job body (the /v1/jobs JSON) and retries per the
// policy. The returned Result carries the final status and body; err is
// non-nil only when no HTTP outcome was reached (breaker open, context
// done, or every attempt failed in transport).
func (c *Client) SubmitJob(ctx context.Context, body []byte) (Result, error) {
	return c.Do(ctx, http.MethodPost, jobsPath, body)
}

// Do performs one request with retries, backoff and the breaker.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (Result, error) {
	c.requests.Add(1)
	res := Result{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := c.br.allow(); err != nil {
			c.breakerRejects.Add(1)
			if lastErr != nil {
				return res, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return res, err
		}
		out, err := c.attempt(ctx, method, path, body)
		res.Attempts++
		c.attempts.Add(1)
		if err == nil {
			res.StatusCode, res.Body, res.RetryAfter = out.status, out.body, out.retryAfter
			res.GateAttempts, res.GateHedged = out.gateAttempts, out.gateHedged
			c.br.record(out.status != http.StatusServiceUnavailable)
			if !retryable(out.status) || attempt >= c.cfg.MaxRetries {
				res.Retried = res.Attempts > 1
				return res, nil
			}
		} else {
			lastErr = err
			if errors.Is(ctx.Err(), context.Canceled) {
				// The caller walked away (a hedge loser the gate cancelled):
				// no verdict on the backend, so no failure and no probe
				// slot kept. A deadline, the caller's or the attempt's,
				// still counts.
				c.br.abandon()
				return res, ctx.Err()
			}
			c.br.record(false)
			if ctx.Err() != nil {
				return res, ctx.Err()
			}
			if attempt >= c.cfg.MaxRetries {
				return res, fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, res.Attempts, err)
			}
		}
		c.retries.Add(1)
		if err := c.sleep(ctx, c.backoff(attempt, out.retryAfter)); err != nil {
			return res, err
		}
	}
}

// attemptOut is the outcome of one successful HTTP attempt.
type attemptOut struct {
	status       int
	body         []byte
	retryAfter   time.Duration
	gateAttempts int
	gateHedged   bool
}

// attempt runs one HTTP attempt under the per-attempt timeout, returning
// the status, drained body, any Retry-After hint, and the watsgate
// routing trailer headers when the target is a gate.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (attemptOut, error) {
	var out attemptOut
	// A caller's deadline that falls sooner already bounds the attempt.
	if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > c.cfg.RequestTimeout {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
		defer cancel()
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	// net/http holds a body to its declared length; one that declares
	// none, or too much, is cut at the cap here.
	var rd io.Reader = resp.Body
	if resp.ContentLength < 0 || resp.ContentLength > wire.MaxBody {
		rd = io.LimitReader(rd, wire.MaxBody)
	}
	out.body, _ = wire.ReadBody(nil, rd, resp.ContentLength)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if d, ok := parseRetryAfter(ra, time.Now()); ok {
			out.retryAfter = d
			c.retryAfterHonored.Add(1)
		}
	}
	if v := resp.Header.Get("X-Watsgate-Attempts"); v != "" {
		if n, perr := strconv.Atoi(v); perr == nil && n > 0 {
			out.gateAttempts = n
		}
	}
	out.gateHedged = resp.Header.Get("X-Watsgate-Hedged") != ""
	return out, nil
}

// newRequest builds one attempt's request. A job submission is a shallow
// copy of the client's template, so its URL is parsed and its header
// built once per client rather than once per attempt; the copy shares
// both with every other attempt, which is sound because a RoundTripper
// may not modify the request it is given.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var req *http.Request
	if c.jobsReq != nil && method == http.MethodPost && path == jobsPath {
		req = c.jobsReq.WithContext(ctx)
	} else {
		var err error
		if req, err = http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, nil); err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if len(body) > 0 {
		// What http.NewRequest does for a *bytes.Reader: a body the
		// transport knows is in memory (so it sends headers and body in
		// one write) and can rewind to retry on a stale connection.
		req.ContentLength = int64(len(body))
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	return req, nil
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110
// §10.2.3: either non-negative delay-seconds or an HTTP-date (IMF-fixdate
// plus the obsolete RFC 850 and asctime forms, via http.ParseTime). A
// date in the past means "come back now" and clamps to 0; anything
// unparseable returns ok=false and the caller falls back to its own
// backoff curve rather than guessing.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0, false
	}
	d := t.Sub(now)
	if d < 0 {
		d = 0
	}
	return d, true
}

// retryable reports whether an HTTP status is worth retrying: shed (429)
// and unavailable (503). Job outcomes (200/500/504) and request errors
// are final.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// backoff computes the wait before retry #attempt: exponential from
// BaseBackoff with equal jitter (half deterministic, half uniform), but
// never less than the server's Retry-After hint (capped by
// MaxRetryAfter) — the server knows its drain better than our curve.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	c.jmu.Lock()
	f := c.jitter.Float64()
	c.jmu.Unlock()
	d = d/2 + time.Duration(f*float64(d/2))
	if retryAfter > c.cfg.MaxRetryAfter {
		retryAfter = c.cfg.MaxRetryAfter
	}
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// breaker states.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// breaker is a mutex-guarded consecutive-failure circuit breaker with a
// single half-open probe. Not on any hot path — one short critical
// section per HTTP attempt.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	state     int
	failures  int
	openedAt  time.Time
	probing   bool
	opens     atomic.Int64
}

func newBreaker(cfg BreakerConfig) *breaker {
	b := &breaker{threshold: cfg.Threshold, cooldown: cfg.Cooldown}
	if b.threshold == 0 {
		b.threshold = 8
	}
	if b.cooldown <= 0 {
		b.cooldown = 2 * time.Second
	}
	return b
}

// allow gates one attempt: nil in closed state, ErrBreakerOpen while
// open; after the cooldown the first caller transitions to half-open and
// becomes the probe, everyone else keeps getting rejected until the
// probe resolves via record.
func (b *breaker) allow() error {
	if b.threshold < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		return nil
	case brOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return ErrBreakerOpen
		}
		b.state, b.probing = brHalfOpen, true
		return nil
	default: // brHalfOpen
		if b.probing {
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
}

// currentState is the read-only view behind Client.BreakerState: an
// open breaker whose cooldown has elapsed reports half-open, because
// the next allow() will admit a probe.
func (b *breaker) currentState() string {
	if b.threshold < 0 {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brClosed:
		return BreakerClosed
	case brHalfOpen:
		return BreakerHalfOpen
	default:
		if time.Since(b.openedAt) >= b.cooldown {
			return BreakerHalfOpen
		}
		return BreakerOpen
	}
}

// abandon reports an attempt its caller cancelled: the outcome says
// nothing about the backend, so it frees a half-open probe slot the
// attempt held without counting a failure.
func (b *breaker) abandon() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// record reports an attempt outcome to the breaker: success closes a
// half-open breaker and resets the failure run; failure re-opens it (or
// opens a closed one at the threshold).
func (b *breaker) record(ok bool) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state, b.failures, b.probing = brClosed, 0, false
		return
	}
	b.failures++
	if b.state == brHalfOpen || b.failures >= b.threshold {
		if b.state != brOpen {
			b.opens.Add(1)
		}
		b.state, b.openedAt, b.probing = brOpen, time.Now(), false
		b.failures = 0
	}
}
