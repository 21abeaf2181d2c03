package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/runtime"
)

// testEnv is one server over a small symmetric runtime (no speed
// emulation: tests want wall-clock determinism, not asymmetry).
type testEnv struct {
	rt  *runtime.Runtime
	srv *Server
	ts  *httptest.Server
}

func newEnv(t testing.TB, mutate func(*Config)) *testEnv {
	t.Helper()
	rt, err := runtime.New(runtime.Config{
		Arch:                  amc.MustNew("test", amc.CGroup{Freq: 2.0, N: 4}),
		DisableSpeedEmulation: true,
		Seed:                  7,
	})
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

// testWorkloads are the builtins plus controlled synthetic workloads the
// tests need for precise timing: a sleeper, a channel blocker, and a
// fan-out tree of slow leaves.
func testWorkloads() map[string]Workload {
	ws := Builtins()
	ws["sleep"] = Workload{
		Name: "sleep", Class: "sleep", Desc: "sleep params.n ms, checking cancellation each ms",
		Run: func(ctx *runtime.Ctx, p Params) (any, error) {
			for i := 0; i < p.N; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				time.Sleep(time.Millisecond)
			}
			return map[string]any{"slept_ms": p.N}, nil
		},
	}
	ws["fanout"] = Workload{
		Name: "fanout", Class: "fanout", Desc: "spawn params.n children sleeping params.size ms each",
		Run: func(ctx *runtime.Ctx, p Params) (any, error) {
			g := ctx.Group()
			for i := 0; i < p.N; i++ {
				g.Spawn(ctx, "fanout.leaf", func(*runtime.Ctx) {
					time.Sleep(time.Duration(p.Size) * time.Millisecond)
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

// blockerWorkload returns a workload that parks until release is closed,
// for tests that need jobs pinned in-flight.
func blockerWorkload(release chan struct{}) Workload {
	return Workload{
		Name: "block", Class: "block", Desc: "block until released",
		Run: func(ctx *runtime.Ctx, p Params) (any, error) {
			<-release
			return "released", nil
		},
	}
}

func (e *testEnv) submit(t *testing.T, body string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, v
}

func (e *testEnv) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(e.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestSubmitSync(t *testing.T) {
	e := newEnv(t, nil)
	resp, v := e.submit(t, `{"workload":"sha1","params":{"size":4096,"seed":3}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if v.Status != StatusCompleted {
		t.Fatalf("job status %q, want completed (err %q)", v.Status, v.Error)
	}
	if v.Result == nil {
		t.Error("completed job has no result")
	}
	if v.ExecMS <= 0 {
		t.Errorf("exec_ms = %v, want > 0", v.ExecMS)
	}
	// The per-job histograms must land on /metrics, labeled by class.
	_, body := e.get(t, "/metrics")
	for _, want := range []string{
		`wats_jobs_total{status="completed"} 1`,
		`wats_job_exec_nanos_count{class="sha1"} 1`,
		`wats_job_queue_wait_nanos_count{class="sha1"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestSubmitAsyncAndPoll(t *testing.T) {
	e := newEnv(t, nil)
	resp, v := e.submit(t, `{"workload":"sleep","params":{"n":20},"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if v.ID == "" {
		t.Fatal("202 response has no job id")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		gresp, body := e.get(t, "/v1/jobs/"+v.ID)
		if gresp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", gresp.StatusCode)
		}
		var pv JobView
		if err := json.Unmarshal(body, &pv); err != nil {
			t.Fatal(err)
		}
		if pv.Status == StatusCompleted {
			if pv.ExecMS < 15 {
				t.Errorf("exec_ms = %v, want >= 15 (20ms sleep)", pv.ExecMS)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in status %q", pv.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp, _ := e.get(t, "/v1/jobs/nosuchjob"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	e := newEnv(t, nil)
	if resp, _ := e.submit(t, `{"workload":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown workload: %d, want 400", resp.StatusCode)
	}
	if resp, _ := e.submit(t, `{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(e.ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs: %d, want 405", resp.StatusCode)
	}
}

// A 1ms deadline on a job that fans out slow children must return 504,
// and the runtime must observe the dropped children as cancellations —
// the deadline reaches the scheduler, not just the HTTP layer.
func TestDeadlineExceeded504(t *testing.T) {
	e := newEnv(t, nil)
	resp, v := e.submit(t, `{"workload":"fanout","params":{"n":64,"size":5},"deadline_ms":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (job %+v)", resp.StatusCode, v)
	}
	if v.Status != StatusExpired {
		t.Errorf("job status %q, want expired", v.Status)
	}
	// Wait for the abandoned tree to drain, then the drops must be
	// visible in runtime stats and on /metrics.
	e.rt.Wait()
	if got := e.rt.Cancelled(); got == 0 {
		t.Error("runtime saw no cancelled tasks; deadline never reached the scheduler")
	}
	_, body := e.get(t, "/metrics")
	if !strings.Contains(string(body), `wats_jobs_total{status="expired"} 1`) {
		t.Error("/metrics missing expired job count")
	}
	if strings.Contains(string(body), "wats_cancels_total 0\n") {
		t.Error("/metrics reports zero task cancels")
	}
}

// A finished job's deadline entry leaves the wheel with it: after 10,000
// noop jobs with a 1 h deadline the heap holds no more entries than jobs
// in flight, not one per job until the hour is up.
func TestDeadlineWheelForgetsFinishedJobs(t *testing.T) {
	s := newAllocEnv(t)
	wl := noopWL(t, s)
	for i := 0; i < 10000; i++ {
		submitNoopOnce(s, wl, time.Hour)
	}
	s.wheel.mu.Lock()
	n := len(s.wheel.heap)
	s.wheel.mu.Unlock()
	if in := s.Inflight(); n > in {
		t.Errorf("deadline wheel holds %d entries with %d jobs in flight", n, in)
	}
}

// Dropping entries from anywhere in the heap keeps it a heap, and keeps
// every record's index pointing at its own entry.
func TestDeadlineWheelDropKeepsHeapOrder(t *testing.T) {
	w := newWheel()
	w.running = true // no loop: entries are only armed and dropped
	rng := rand.New(rand.NewPCG(1, 2))
	recs := make([]*jobRec, 500)
	now := time.Now()
	for i := range recs {
		recs[i] = &jobRec{wheelIdx: -1}
		w.arm(recs[i], 0, now.Add(time.Duration(rng.IntN(100))*time.Second))
	}
	for k, i := range rng.Perm(len(recs))[:400] {
		w.drop(recs[i])
		if recs[i].wheelIdx != -1 {
			t.Fatalf("drop %d: dropped record still has index %d", k, recs[i].wheelIdx)
		}
		for j, e := range w.heap {
			if e.rec.wheelIdx != j {
				t.Fatalf("drop %d: entry %d's record has index %d", k, j, e.rec.wheelIdx)
			}
			if p := (j - 1) / 2; j > 0 && e.at.Before(w.heap[p].at) {
				t.Fatalf("drop %d: entry %d is earlier than its parent", k, j)
			}
		}
	}
	if len(w.heap) != 100 {
		t.Errorf("%d entries left, want 100", len(w.heap))
	}
}

// Submissions beyond MaxInflight are shed with 429 + Retry-After while
// admitted jobs keep running.
func TestOverloadShedsWith429(t *testing.T) {
	release := make(chan struct{})
	e := newEnv(t, func(c *Config) {
		c.MaxInflight = 2
		c.Workloads["block"] = blockerWorkload(release)
	})
	for i := 0; i < 2; i++ {
		if resp, _ := e.submit(t, `{"workload":"block","async":true}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker %d: status %d", i, resp.StatusCode)
		}
	}
	resp, _ := e.submit(t, `{"workload":"sha1"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(release)
	waitInflightZero(t, e.srv)
	if resp, v := e.submit(t, `{"workload":"sha1"}`); resp.StatusCode != http.StatusOK || v.Status != StatusCompleted {
		t.Errorf("post-release submit: status %d job %q", resp.StatusCode, v.Status)
	}
	_, body := e.get(t, "/metrics")
	if !strings.Contains(string(body), `wats_jobs_total{status="shed"} 1`) {
		t.Error("/metrics missing shed count")
	}
}

// Queue-depth shedding: once the runtime's queued-task count reaches the
// threshold, submissions are shed even below MaxInflight.
func TestQueueDepthShedding(t *testing.T) {
	release := make(chan struct{})
	e := newEnv(t, func(c *Config) {
		c.MaxInflight = 100
		c.ShedQueueDepth = 1
		c.Workloads["block"] = blockerWorkload(release)
	})
	defer close(release)
	// Fill all 4 workers, then one more whose root task stays queued.
	for i := 0; i < 5; i++ {
		if resp, _ := e.submit(t, `{"workload":"block","async":true}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("blocker %d: status %d", i, resp.StatusCode)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return e.rt.QueuedTasks() >= 1 })
	resp, _ := e.submit(t, `{"workload":"sha1"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 at queue depth %d", resp.StatusCode, e.rt.QueuedTasks())
	}
}

// Drain must finish every admitted job (zero drops), reject new work with
// 503, and leave the runtime quiescent.
func TestGracefulDrain(t *testing.T) {
	e := newEnv(t, nil)
	var ids []string
	for i := 0; i < 8; i++ {
		resp, v := e.submit(t, `{"workload":"sleep","params":{"n":15},"async":true}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		_, body := e.get(t, "/v1/jobs/"+id)
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusCompleted {
			t.Errorf("job %s: status %q after drain, want completed", id, v.Status)
		}
	}
	if resp, _ := e.submit(t, `{"workload":"sha1"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: status %d, want 503", resp.StatusCode)
	}
	if resp, body := e.get(t, "/v1/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz after drain: %d %s", resp.StatusCode, body)
	}
	if q := e.rt.QueuedTasks(); q != 0 {
		t.Errorf("%d tasks still queued after drain", q)
	}
}

// The e2e shape of the acceptance criterion: under deliberate overload
// (tiny in-flight bound, many concurrent submitters) shed responses rise
// while the latency of every completed job stays bounded by the
// (inflight cap × job time) envelope instead of collapsing.
func TestOverloadKeepsCompletedLatencyBounded(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.MaxInflight = 4 })
	const n = 120
	var mu sync.Mutex
	var completed, shed int
	var worst time.Duration
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			resp, err := http.Post(e.ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(`{"workload":"sleep","params":{"n":5}}`))
			if err != nil {
				return
			}
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				completed++
				if d := time.Since(t0); d > worst {
					worst = d
				}
			case http.StatusTooManyRequests:
				shed++
			}
		}()
	}
	wg.Wait()
	if completed == 0 {
		t.Fatal("nothing completed under overload")
	}
	if shed == 0 {
		t.Fatal("nothing shed under overload: admission control inert")
	}
	// 4 in-flight × ~5ms jobs: a completed job can never queue behind
	// more than the in-flight cap, so even a generous bound is far below
	// the n × 5ms a collapsing unshed queue would produce.
	if worst > 5*time.Second {
		t.Errorf("worst completed latency %v: shedding did not bound it", worst)
	}
	t.Logf("overload: %d completed, %d shed, worst completed latency %v", completed, shed, worst)
}

func TestVersionWorkloadsHealthz(t *testing.T) {
	e := newEnv(t, nil)
	resp, body := e.get(t, "/v1/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/version: %d", resp.StatusCode)
	}
	var b BuildInfo
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if b.Version == "" || b.GoVersion == "" {
		t.Errorf("incomplete build info: %+v", b)
	}
	resp, body = e.get(t, "/v1/workloads")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"sha1"`) {
		t.Errorf("/v1/workloads: %d %.80s", resp.StatusCode, body)
	}
	resp, body = e.get(t, "/v1/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("/v1/healthz: %d %s", resp.StatusCode, body)
	}
	// The debug mux rides on the same listener.
	if resp, _ := e.get(t, "/debug/wats"); resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/wats: %d", resp.StatusCode)
	}
}

// Every builtin workload must run to completion through the service.
func TestBuiltinWorkloadsComplete(t *testing.T) {
	e := newEnv(t, nil)
	for name := range Builtins() {
		resp, v := e.submit(t, fmt.Sprintf(`{"workload":%q,"params":{"size":2048,"n":4,"generations":2}}`, name))
		if resp.StatusCode != http.StatusOK || v.Status != StatusCompleted {
			t.Errorf("%s: status %d job %q err %q", name, resp.StatusCode, v.Status, v.Error)
		}
	}
}

func waitInflightZero(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool { return s.Inflight() == 0 })
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSyncCallerGoneAbandonsJob: a sync submitter that stops waiting —
// a disconnected client, or a hedged gate attempt losing the race —
// abandons the job. It must be accounted expired, never completed, so
// gate-side hedging cannot inflate the completed count.
func TestSyncCallerGoneAbandonsJob(t *testing.T) {
	e := newEnv(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/v1/jobs",
		strings.NewReader(`{"workload":"sleep","params":{"n":2000}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		resp, derr := http.DefaultClient.Do(req)
		if derr == nil {
			resp.Body.Close()
		}
		done <- derr
	}()
	time.Sleep(50 * time.Millisecond) // let the body start sleeping
	cancel()
	if derr := <-done; derr == nil {
		t.Fatal("cancelled request unexpectedly returned a response")
	}
	// abandon wins finalization immediately; the poisoned body retires at
	// its next cancellation check and the counters settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c := e.srv.Metrics().Counters()
		if c.Expired == 1 && c.Completed == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters after abandon: %+v", c)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
