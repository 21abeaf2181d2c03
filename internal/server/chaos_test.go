package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/client"
	"wats/internal/fault"
	"wats/internal/obs"
	"wats/internal/runtime"
)

// newChaosEnv is newEnv with control over the runtime config too — the
// chaos tests need fault injectors and watchdog thresholds attached.
func newChaosEnv(t *testing.T, rtMutate func(*runtime.Config), mutate func(*Config)) *testEnv {
	t.Helper()
	rcfg := runtime.Config{
		Arch:                  amc.MustNew("chaos", amc.CGroup{Freq: 2.0, N: 4}),
		DisableSpeedEmulation: true,
		Seed:                  7,
	}
	if rtMutate != nil {
		rtMutate(&rcfg)
	}
	rt, err := runtime.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Runtime: rt, Workloads: testWorkloads()}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Shutdown()
	})
	return &testEnv{rt: rt, srv: srv, ts: ts}
}

// panicWorkloads adds workloads that panic: in the root body, and in one
// child of a fan-out (the siblings poll the job context).
func panicWorkloads() map[string]Workload {
	ws := testWorkloads()
	ws["boom"] = Workload{
		Name: "boom", Class: "boom", Desc: "panic in the root task body",
		Run: func(ctx *runtime.Ctx, p Params) (any, error) {
			panic("boom!")
		},
	}
	ws["poison"] = Workload{
		Name: "poison", Class: "poison", Desc: "fan out params.n children; the first panics",
		Run: func(ctx *runtime.Ctx, p Params) (any, error) {
			g := ctx.Group()
			for i := 0; i < p.N; i++ {
				i := i
				g.Spawn(ctx, "poison.leaf", func(c *runtime.Ctx) {
					if i == 0 {
						time.Sleep(time.Millisecond)
						panic(fmt.Sprintf("leaf %d down", i))
					}
					for j := 0; j < 500; j++ {
						if c.Err() != nil {
							return
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
			g.Wait(ctx)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return map[string]any{"children": p.N}, nil
		},
	}
	return ws
}

// TestRootPanicStructured500: a panic in the root body finalizes the job
// as a structured 500 {"error":"panic","detail":...}; the daemon and its
// workers survive and the next job completes normally.
func TestRootPanicStructured500(t *testing.T) {
	e := newEnv(t, func(cfg *Config) { cfg.Workloads = panicWorkloads() })
	resp, v := e.submit(t, `{"workload":"boom"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if v.Status != StatusPanicked || v.Error != "panic" {
		t.Fatalf("job %+v, want status panicked error panic", v)
	}
	if !strings.Contains(v.Detail, "boom!") || !strings.Contains(v.Detail, `class "boom"`) {
		t.Fatalf("detail %q should carry the panic value and class", v.Detail)
	}
	if got := e.rt.Panics(); got != 1 {
		t.Fatalf("runtime recovered %d panics, want 1", got)
	}
	// The daemon still serves: same worker pool, next job fine.
	resp, v = e.submit(t, `{"workload":"sha1","params":{"size":1024}}`)
	if resp.StatusCode != http.StatusOK || v.Status != StatusCompleted {
		t.Fatalf("post-panic job: %d %+v", resp.StatusCode, v)
	}
	if c := e.srv.Metrics().Counters(); c.Panicked != 1 || c.Completed != 1 {
		t.Fatalf("job counters %+v, want 1 panicked 1 completed", c)
	}
	waitInflightZero(t, e.srv)
}

// TestChildPanicPoisonsJob: a panic deep in a fan-out cancels the whole
// job — running siblings unblock via the poisoned context, queued ones
// are retired as cancellations — and the client still gets the
// structured 500 with the child's panic in the detail.
func TestChildPanicPoisonsJob(t *testing.T) {
	e := newEnv(t, func(cfg *Config) { cfg.Workloads = panicWorkloads() })
	start := time.Now()
	resp, v := e.submit(t, `{"workload":"poison","params":{"n":64}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (job %+v)", resp.StatusCode, v)
	}
	if v.Status != StatusPanicked || v.Error != "panic" {
		t.Fatalf("job %+v, want panicked", v)
	}
	if !strings.Contains(v.Detail, "leaf 0 down") {
		t.Fatalf("detail %q should carry the child's panic", v.Detail)
	}
	// The poison retired the queued siblings instead of running them to
	// completion: the job resolves in ~the panicking child's time, far
	// below the 500ms the blocked siblings would otherwise take.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("poisoned job took %v; siblings were not retired", elapsed)
	}
	// Siblings are retired when workers next acquire them, which can be
	// after the 500 is written: wait for the counter, boundedly.
	for deadline := time.Now().Add(5 * time.Second); e.rt.Cancelled() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if e.rt.Cancelled() == 0 {
		t.Error("no queued siblings were retired after the poison")
	}
	if e.rt.Panics() != 1 {
		t.Fatalf("runtime panics %d, want 1", e.rt.Panics())
	}
	resp, v = e.submit(t, `{"workload":"sha1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-poison job: %d %+v", resp.StatusCode, v)
	}
	waitInflightZero(t, e.srv)
}

// TestReadyz: ready while serving, 503 draining after Drain — while
// healthz (liveness) keeps answering 200 throughout.
func TestReadyz(t *testing.T) {
	e := newEnv(t, nil)
	resp, body := e.get(t, "/v1/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("readyz before drain: %d %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, body = e.get(t, "/v1/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("readyz after drain: %d %s", resp.StatusCode, body)
	}
	resp, body = e.get(t, "/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz must stay 200 during drain, got %d %s", resp.StatusCode, body)
	}
}

// TestReadyzWedged: a task stalled past the watchdog threshold flips
// readiness to 503 "wedged" (healthz stays 200 with the count); when the
// task completes, readiness recovers.
func TestReadyzWedged(t *testing.T) {
	release := make(chan struct{})
	e := newChaosEnv(t,
		func(rcfg *runtime.Config) { rcfg.StallThreshold = 25 * time.Millisecond },
		func(cfg *Config) {
			cfg.Workloads = testWorkloads()
			cfg.Workloads["block"] = blockerWorkload(release)
		})
	resp, _ := e.get(t, "/v1/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before stall: %d", resp.StatusCode)
	}
	_, v := e.submit(t, `{"workload":"block","async":true}`)
	if v.ID == "" {
		t.Fatal("no job id")
	}
	waitFor(t, 5*time.Second, func() bool {
		resp, body := e.get(t, "/v1/readyz")
		return resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "wedged")
	})
	resp, body := e.get(t, "/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"stalled_workers":1`) {
		t.Fatalf("healthz while wedged: %d %s", resp.StatusCode, body)
	}
	close(release)
	waitFor(t, 5*time.Second, func() bool {
		resp, _ := e.get(t, "/v1/readyz")
		return resp.StatusCode == http.StatusOK
	})
	waitInflightZero(t, e.srv)
}

// TestChaosOverload is the chaos acceptance run in miniature: injected
// panics at overload through the retrying client. The daemon must never
// crash, every poisoned job must finalize as a structured 500, the
// panic accounting must be exact (wats_panics_total == injected count),
// and non-faulted jobs must keep completing.
func TestChaosOverload(t *testing.T) {
	injector := fault.New(fault.Spec{Seed: 1234, PanicRate: 0.02})
	e := newChaosEnv(t,
		func(rcfg *runtime.Config) {
			rcfg.Fault = injector
			rcfg.Obs = obs.NewTracer(4, 256)
		},
		func(cfg *Config) {
			cfg.MaxInflight = 16
			cfg.RetryAfter = 10 * time.Millisecond
		})
	cl, err := client.New(client.Config{
		BaseURL:     e.ts.URL,
		MaxRetries:  8,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Seed:        9,
		Breaker:     client.BreakerConfig{Threshold: -1}, // keep every attempt flowing
	})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 200
	type outcome struct {
		status   int
		panicked bool
	}
	outcomes := make(chan outcome, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"workload":"sha1","params":{"size":2048,"seed":%d}}`, i+1)
			res, err := cl.SubmitJob(context.Background(), []byte(body))
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			var v JobView
			_ = json.Unmarshal(res.Body, &v)
			outcomes <- outcome{status: res.StatusCode, panicked: v.Error == "panic"}
		}()
	}
	wg.Wait()
	close(outcomes)

	var completed, panicked, shedFinal, other int
	for o := range outcomes {
		switch {
		case o.status == http.StatusOK:
			completed++
		case o.status == http.StatusInternalServerError && o.panicked:
			panicked++
		case o.status == http.StatusTooManyRequests:
			shedFinal++ // retry budget exhausted: legitimate under overload
		default:
			other++
		}
	}
	if other != 0 {
		t.Fatalf("unexpected outcomes: %d (completed %d, panicked %d, shed %d)", other, completed, panicked, shedFinal)
	}
	if completed == 0 {
		t.Fatal("nothing completed under chaos")
	}

	waitInflightZero(t, e.srv)
	// Exact accounting: every injected panic was recovered (none leaked,
	// none double-counted), and each one poisoned exactly one job.
	inj := injector.Counts().Panics
	if inj == 0 {
		t.Fatal("the chaos run injected no panics; raise jobs or the rate")
	}
	if got := e.rt.Panics(); got != inj {
		t.Fatalf("runtime recovered %d panics, injector planned %d", got, inj)
	}
	if c := e.srv.Metrics().Counters(); int64(c.Panicked) != inj || int(c.Panicked) != panicked {
		t.Fatalf("job counters %+v vs injected %d vs observed %d", c, inj, panicked)
	}
	// The daemon is alive and exact counts flow to /metrics.
	resp, body := e.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), fmt.Sprintf("wats_panics_total %d", inj)) {
		t.Fatalf("/metrics missing exact wats_panics_total %d", inj)
	}
	resp, _ = e.get(t, "/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %d", resp.StatusCode)
	}
}
