package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyServer answers with the scripted status codes in order, then 200.
func flakyServer(t *testing.T, script ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		if n < len(script) {
			w.WriteHeader(script[n])
			return
		}
		w.Write([]byte(`{"status":"completed"}`))
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func fastCfg(url string) Config {
	return Config{
		BaseURL:     url,
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        7,
	}
}

func TestRetryUntilSuccess(t *testing.T) {
	ts, calls := flakyServer(t, http.StatusServiceUnavailable, http.StatusTooManyRequests)
	c, err := New(fastCfg(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SubmitJob(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", res.StatusCode)
	}
	if res.Attempts != 3 || !res.Retried {
		t.Fatalf("attempts %d retried %v, want 3 attempts retried", res.Attempts, res.Retried)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	st := c.Stats()
	if st.Requests != 1 || st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestFinalOutcomesNotRetried: 500 and 504 are job outcomes — retrying
// them would duplicate work the scheduler already did.
func TestFinalOutcomesNotRetried(t *testing.T) {
	for _, status := range []int{http.StatusInternalServerError, http.StatusGatewayTimeout, http.StatusBadRequest} {
		ts, calls := flakyServer(t, status)
		c, _ := New(fastCfg(ts.URL))
		res, err := c.SubmitJob(context.Background(), []byte(`{}`))
		if err != nil {
			t.Fatalf("status %d: %v", status, err)
		}
		if res.StatusCode != status || res.Attempts != 1 || res.Retried {
			t.Fatalf("status %d: result %+v, want one unretried attempt", status, res)
		}
		if calls.Load() != 1 {
			t.Fatalf("status %d: server saw %d calls", status, calls.Load())
		}
	}
}

// TestRetryBudgetExhausted: a server that sheds forever makes Do return
// the last 429 after MaxRetries+1 attempts, without error.
func TestRetryBudgetExhausted(t *testing.T) {
	script := make([]int, 10)
	for i := range script {
		script[i] = http.StatusTooManyRequests
	}
	ts, calls := flakyServer(t, script...)
	c, _ := New(fastCfg(ts.URL))
	res, err := c.SubmitJob(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusTooManyRequests || res.Attempts != 4 {
		t.Fatalf("result %+v, want final 429 after 4 attempts", res)
	}
	if calls.Load() != 4 {
		t.Fatalf("server saw %d calls, want 4", calls.Load())
	}
}

// TestRetryAfterHonored: the server's Retry-After hint (capped by
// MaxRetryAfter) floors the backoff.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1") // 1s, capped to 30ms below
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`ok`))
	}))
	defer ts.Close()
	cfg := fastCfg(ts.URL)
	cfg.MaxRetryAfter = 30 * time.Millisecond
	c, _ := New(cfg)
	start := time.Now()
	res, err := c.SubmitJob(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || res.Attempts != 2 {
		t.Fatalf("result %+v", res)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("retried after %v, should have waited the capped Retry-After 30ms", elapsed)
	}
	if st := c.Stats(); st.RetryAfterHonored != 1 {
		t.Errorf("stats %+v, want RetryAfterHonored 1", st)
	}
}

// TestBreakerOpensAndRecovers: consecutive 503s open the breaker, which
// rejects locally until the cooldown, then one half-open probe closes it
// again when the server has recovered.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`ok`))
	}))
	defer ts.Close()
	cfg := Config{
		BaseURL:     ts.URL,
		MaxRetries:  0, // one attempt per Do: the test drives the breaker directly
		BaseBackoff: time.Millisecond,
		Seed:        7,
		Breaker:     BreakerConfig{Threshold: 3, Cooldown: 30 * time.Millisecond},
	}
	c, _ := New(cfg)
	for i := 0; i < 3; i++ {
		res, err := c.SubmitJob(context.Background(), []byte(`{}`))
		if err != nil || res.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: res %+v err %v", i, res, err)
		}
	}
	// Threshold reached: the next submission is rejected locally.
	if _, err := c.SubmitJob(context.Background(), []byte(`{}`)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	st := c.Stats()
	if st.BreakerOpens != 1 || st.BreakerRejects != 1 {
		t.Fatalf("stats %+v, want 1 open 1 reject", st)
	}
	// Server recovers; after the cooldown the half-open probe goes through
	// and closes the breaker.
	healthy.Store(true)
	time.Sleep(40 * time.Millisecond)
	res, err := c.SubmitJob(context.Background(), []byte(`{}`))
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("probe: res %+v err %v", res, err)
	}
	res, err = c.SubmitJob(context.Background(), []byte(`{}`))
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("after close: res %+v err %v", res, err)
	}
}

// TestBreakerIgnores429: shed responses are flow control from a healthy
// server, not failures — they must never open the breaker.
func TestBreaker429Resets(t *testing.T) {
	script := make([]int, 20)
	for i := range script {
		script[i] = http.StatusTooManyRequests
	}
	ts, _ := flakyServer(t, script...)
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = 0
	cfg.Breaker = BreakerConfig{Threshold: 3, Cooldown: time.Minute}
	c, _ := New(cfg)
	for i := 0; i < 10; i++ {
		res, err := c.SubmitJob(context.Background(), []byte(`{}`))
		if err != nil || res.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("attempt %d: res %+v err %v (breaker must not open on 429s)", i, res, err)
		}
	}
	if st := c.Stats(); st.BreakerOpens != 0 {
		t.Fatalf("breaker opened on 429s: %+v", st)
	}
}

// TestBreakerIgnoresCancelledAttempts: an attempt its caller cancels
// mid-flight (a hedge loser the gate gave up on) says nothing about the
// backend, so eight of them leave a threshold-2 breaker closed, and a
// cancelled half-open probe hands its slot to the next caller instead of
// re-opening the breaker. A deadline still counts as a failure.
func TestBreakerIgnoresCancelledAttempts(t *testing.T) {
	arrived := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			w.Write([]byte(`ok`))
			return
		case "/signal":
			arrived <- struct{}{}
		}
		<-r.Context().Done()
	}))
	defer ts.Close()
	c, _ := New(Config{BaseURL: ts.URL, Breaker: BreakerConfig{Threshold: 2, Cooldown: 20 * time.Millisecond}})
	cancelled := func() error {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { <-arrived; cancel() }()
		_, err := c.Do(ctx, http.MethodGet, "/signal", nil)
		return err
	}
	timedOut := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		_, err := c.Do(ctx, http.MethodGet, "/hang", nil)
		return err
	}

	for i := 0; i < 8; i++ {
		if err := cancelled(); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled attempt %d: %v", i, err)
		}
	}
	if st, opens := c.BreakerState(), c.Stats().BreakerOpens; st != BreakerClosed || opens != 0 {
		t.Fatalf("after 8 cancelled attempts: breaker %s, %d opens; want closed, 0", st, opens)
	}

	for i := 0; i < 2; i++ {
		if err := timedOut(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timed-out attempt %d: %v", i, err)
		}
	}
	if opens := c.Stats().BreakerOpens; opens != 1 {
		t.Fatalf("2 timeouts at threshold 2: %d opens, want 1", opens)
	}

	time.Sleep(30 * time.Millisecond) // the cooldown: the next attempt is the probe
	if err := cancelled(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe: %v", err)
	}
	if res, err := c.Do(context.Background(), http.MethodGet, "/ok", nil); err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("after a cancelled probe the next caller must probe: res %+v err %v", res, err)
	}
	if st := c.BreakerState(); st != BreakerClosed {
		t.Fatalf("a successful probe leaves the breaker %s, want closed", st)
	}
}

// TestTransportErrorsRetried: a dead endpoint exhausts the budget and
// surfaces the transport error.
func TestTransportErrorsRetried(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close() // dead: every attempt is a connection error
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = 2
	c, _ := New(cfg)
	res, err := c.SubmitJob(context.Background(), []byte(`{}`))
	if err == nil {
		t.Fatal("want transport error")
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", res.Attempts)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	script := make([]int, 50)
	for i := range script {
		script[i] = http.StatusServiceUnavailable
	}
	ts, _ := flakyServer(t, script...)
	cfg := fastCfg(ts.URL)
	cfg.MaxRetries = 50
	cfg.BaseBackoff = 20 * time.Millisecond
	c, _ := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Do(ctx, http.MethodPost, "/v1/jobs", []byte(`{}`))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without BaseURL should fail")
	}
}
