package gate

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/client"
	"wats/internal/runtime"
	"wats/internal/server"
)

// fakeBackend is a canned watsd: it answers the poll endpoints the gate
// depends on (/v1/readyz, /v1/stats, /v1/workloads) and delegates the
// job API to per-test handlers, so tests control shed/fail behavior
// precisely without timing games.
type fakeBackend struct {
	ts    *httptest.Server
	jobs  http.HandlerFunc
	batch http.HandlerFunc
	poll  http.HandlerFunc
}

func newFake(t *testing.T) *fakeBackend {
	t.Helper()
	f := &fakeBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ready"}`))
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"workers":4,"queued":0,"inflight":0}`))
	})
	mux.HandleFunc("/v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[]`))
	})
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) { f.jobs(w, r) })
	mux.HandleFunc("/v1/jobs:batch", func(w http.ResponseWriter, r *http.Request) { f.batch(w, r) })
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) { f.poll(w, r) })
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// newGateTS builds a gate over the given backends and serves it; both
// are torn down with the test. WaitReady ensures the first poll landed.
func newGateTS(t *testing.T, cfg Config) (*Gate, *httptest.Server) {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := g.WaitReady(ctx); err != nil {
		t.Fatalf("gate never became ready: %v", err)
	}
	return g, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, b
}

// TestGateReroutesUnavailableBackend: backend "sick" reports ready but
// answers every submission 503 (mid-drain); backend "ok" completes
// jobs. Every gate response must be a 200 from "ok"; the 503s show up
// as reroutes, and sick's breaker opens after the threshold so later
// picks skip it without an attempt.
func TestGateReroutesUnavailableBackend(t *testing.T) {
	sick := newFake(t)
	sick.jobs = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}
	ok := newFake(t)
	ok.jobs = func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"id":"j1","workload":"w","status":"completed","queue_wait_ms":0.1,"exec_ms":5}`))
	}
	g, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "sick", URL: sick.ts.URL}, {Name: "ok", URL: ok.ts.URL}},
		Breaker:  client.BreakerConfig{Threshold: 2, Cooldown: time.Minute},
	})
	for i := 0; i < 10; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	sickB, okB := g.backends[0], g.backends[1]
	if n := sickB.outcomes[outcomeUnavailable].Load(); n == 0 {
		t.Fatal("sick backend's 503s were not recorded")
	}
	if n := sickB.reroutes.Load(); n == 0 {
		t.Fatal("no reroutes counted off the sick backend")
	}
	if n := okB.outcomes[outcomeOK].Load(); n != 10 {
		t.Fatalf("ok backend completed %d of 10", n)
	}
	if st := sickB.cl.BreakerState(); st != client.BreakerOpen {
		t.Fatalf("sick breaker is %q, want open", st)
	}
	// The gate learned ok's exec latency from the passed-through bodies.
	if tc := okB.view("w", 0, time.Time{}).tc; tc < 4.9 || tc > 5.1 {
		t.Fatalf("learned TC %v, want ~5ms", tc)
	}
}

// TestGateShedPassthrough: when every route sheds, the gate passes the
// last 429 — and its Retry-After hint — through to the caller instead
// of inventing its own error.
func TestGateShedPassthrough(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	}
	a, b := newFake(t), newFake(t)
	a.jobs, b.jobs = shed, shed
	_, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "a", URL: a.ts.URL}, {Name: "b", URL: b.ts.URL}},
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want 1", ra)
	}
}

// TestGateAsyncIDRoundTrip: an async 202's job id comes back prefixed
// with the owning backend's name, and polling that id routes to the
// same backend and restores the prefix in the response.
func TestGateAsyncIDRoundTrip(t *testing.T) {
	f := newFake(t)
	f.jobs = func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j000007","workload":"w","status":"queued","queue_wait_ms":0}`))
	}
	f.poll = func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/j000007" {
			http.Error(w, `{"error":"wrong id"}`, http.StatusNotFound)
			return
		}
		w.Write([]byte(`{"id":"j000007","workload":"w","status":"completed","queue_wait_ms":0,"exec_ms":3}`))
	}
	_, ts := newGateTS(t, Config{Backends: []BackendConf{{Name: "node1", URL: f.ts.URL}}})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w","async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID != "node1.j000007" {
		t.Fatalf("async id %q (err %v), want node1.j000007", sub.ID, err)
	}
	resp, body = getJSON(t, ts.URL+"/v1/jobs/"+sub.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll: HTTP %d: %s", resp.StatusCode, body)
	}
	var poll struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &poll); err != nil || poll.ID != "node1.j000007" || poll.Status != "completed" {
		t.Fatalf("poll view %s (err %v)", body, err)
	}
}

// TestGatePollIDs: a poll reaches its backend only as GET
// /v1/jobs/<id> with <id> one path segment; every other id fails fast at
// the gate, before any backend sees it — no climbing to another backend
// endpoint, no smuggled query.
func TestGatePollIDs(t *testing.T) {
	f := newFake(t)
	var (
		mu        sync.Mutex
		forwarded []string
	)
	f.poll = func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		forwarded = append(forwarded, r.URL.RequestURI())
		mu.Unlock()
		w.Write([]byte(`{"id":"j000007","workload":"w","status":"completed","queue_wait_ms":0,"exec_ms":3}`))
	}
	_, ts := newGateTS(t, Config{Backends: []BackendConf{{Name: "node1", URL: f.ts.URL}}})
	for _, row := range []struct {
		id   string
		code int
		to   string // the backend request, "" = none
	}{
		{"node1.j000007", http.StatusOK, "/v1/jobs/j000007"},
		{"j000007", http.StatusBadRequest, ""},
		{"ghost.j000007", http.StatusNotFound, ""},
		{"node1.", http.StatusBadRequest, ""},
		{"node1.x%2F..%2F..%2Fstats", http.StatusBadRequest, ""},
		{"node1.j1%3Fx=1", http.StatusBadRequest, ""},
	} {
		mu.Lock()
		forwarded = nil
		mu.Unlock()
		resp, body := getJSON(t, ts.URL+"/v1/jobs/"+row.id)
		if resp.StatusCode != row.code {
			t.Errorf("GET /v1/jobs/%s: HTTP %d, want %d: %s", row.id, resp.StatusCode, row.code, body)
		}
		mu.Lock()
		got := strings.Join(forwarded, " ")
		mu.Unlock()
		if got != row.to {
			t.Errorf("GET /v1/jobs/%s reached the backend as %q, want %q", row.id, got, row.to)
		}
	}
}

// fakeBatchOK answers a sub-batch with code-200 items echoing each
// job's workload, so tests can verify order restoration after items
// scattered across backends.
func fakeBatchOK(execMS float64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Jobs []struct {
				Workload string `json:"workload"`
			} `json:"jobs"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
			return
		}
		parts := make([]string, len(req.Jobs))
		for i, j := range req.Jobs {
			parts[i] = fmt.Sprintf(`{"code":200,"workload":%q,"status":"completed","queue_wait_ms":0,"exec_ms":%g}`, j.Workload, execMS)
		}
		fmt.Fprintf(w, `{"results":[%s]}`, strings.Join(parts, ","))
	}
}

// TestGateBatchReroutesShedItems: one backend sheds every item
// (per-item 429s), the other completes them. The gate must re-route
// only the shed items and hand back all-200 results in request order.
func TestGateBatchReroutesShedItems(t *testing.T) {
	shedder := newFake(t)
	shedder.batch = func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Retry-After", "1")
		parts := make([]string, len(req.Jobs))
		for i := range parts {
			parts[i] = `{"code":429,"error":"shed"}`
		}
		fmt.Fprintf(w, `{"results":[%s]}`, strings.Join(parts, ","))
	}
	ok := newFake(t)
	ok.batch = fakeBatchOK(2)
	_, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "shedder", URL: shedder.ts.URL}, {Name: "ok", URL: ok.ts.URL}},
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs:batch",
		`{"jobs":[{"workload":"w0"},{"workload":"w1"},{"workload":"w2"},{"workload":"w3"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Code     int    `json:"code"`
			Workload string `json:"workload"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("%d results, want 4", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Code != http.StatusOK || r.Workload != fmt.Sprintf("w%d", i) {
			t.Fatalf("result %d = %+v: every item must complete, in request order", i, r)
		}
	}
	// All items final: the shedder's Retry-After hint must not leak.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("Retry-After %q on a fully-completed batch", ra)
	}
}

// TestGateBatchExhaustion: every backend sheds the whole batch — each
// item reports the shed code and the backoff hint survives to the gate
// response.
func TestGateBatchExhaustion(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		http.Error(w, `{"error":"batch shed"}`, http.StatusTooManyRequests)
	}
	a, b := newFake(t), newFake(t)
	a.batch, b.batch = shed, shed
	_, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "a", URL: a.ts.URL}, {Name: "b", URL: b.ts.URL}},
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs:batch", `{"jobs":[{"workload":"w"},{"workload":"w"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Code int `json:"code"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != 2 {
		t.Fatalf("decode %s: %v", body, err)
	}
	for i, r := range out.Results {
		if r.Code != http.StatusTooManyRequests {
			t.Fatalf("result %d code %d, want 429", i, r.Code)
		}
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After %q, want 2", ra)
	}
}

// realBackend spins a full watsd stack (runtime + server) whose "work"
// workload sleeps for the given duration — a heterogeneous cluster in
// miniature, with wall-clock determinism (no speed emulation).
func realBackend(t *testing.T, sleep time.Duration) string {
	t.Helper()
	rt, err := runtime.New(runtime.Config{
		Arch:                  amc.MustNew("test", amc.CGroup{Freq: 2.0, N: 2}),
		DisableSpeedEmulation: true,
		Seed:                  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Runtime: rt, Workloads: map[string]server.Workload{
		"work": {Name: "work", Class: "work", Desc: "sleep", Run: func(ctx *runtime.Ctx, p server.Params) (any, error) {
			time.Sleep(sleep)
			return "ok", nil
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Shutdown()
	})
	return ts.URL
}

// TestGateLearnsHeterogeneousCluster is the wire-compatibility test:
// two real watsd stacks with a 6× exec-latency gap, the slow one listed
// first. After one exploration round per backend the weighted scorer
// must concentrate the class on the fast node, and /v1/gate/table must
// show the learned gap.
func TestGateLearnsHeterogeneousCluster(t *testing.T) {
	slow := realBackend(t, 12*time.Millisecond)
	fast := realBackend(t, 2*time.Millisecond)
	_, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "slow", URL: slow}, {Name: "fast", URL: fast}},
	})
	const n = 20
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"work"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
	}
	resp, body := getJSON(t, ts.URL+"/v1/gate/table")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table: HTTP %d", resp.StatusCode)
	}
	var table struct {
		Backends []backendView `json:"backends"`
	}
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatalf("decode table %s: %v", body, err)
	}
	byName := map[string]backendView{}
	for _, b := range table.Backends {
		byName[b.Name] = b
	}
	if byName["fast"].Routed < n*3/4 {
		t.Fatalf("fast backend got %d of %d jobs; routing never converged (slow got %d)",
			byName["fast"].Routed, n, byName["slow"].Routed)
	}
	if tf, ts := byName["fast"].TC["work"], byName["slow"].TC["work"]; !(tf > 0 && ts > tf) {
		t.Fatalf("learned TC fast=%v slow=%v, want 0 < fast < slow", tf, ts)
	}
	// The gate's own readiness reflects the live cluster.
	if resp, _ := getJSON(t, ts.URL+"/v1/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: HTTP %d", resp.StatusCode)
	}
}
