package gate

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wats/internal/wire"
)

// A caller that goes away takes its attempt with it: the attempt's
// context does not hang off the request's, so the dispatch loop passes
// the cancellation on by hand, and no hedge is launched afterwards.
func TestCallerGoneCancelsAttempt(t *testing.T) {
	var started, cancelled, finished atomic.Int64
	slow := newFake(t)
	slow.jobs = func(w http.ResponseWriter, r *http.Request) {
		started.Add(1)
		io.Copy(io.Discard, r.Body) // net/http watches for a vanished caller only past the body
		select {
		case <-time.After(3 * time.Second):
			finished.Add(1)
		case <-r.Context().Done():
			cancelled.Add(1)
		}
	}
	other := newFake(t)
	other.jobs = slow.jobs
	_, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "a", URL: slow.ts.URL}, {Name: "b", URL: other.ts.URL}},
		Hedge:    HedgeConfig{Enabled: true, MinDelay: 150 * time.Millisecond, MaxDelay: 150 * time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(`{"workload":"w"}`))
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("submission outlived its 30 ms context: HTTP %d", resp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cancelled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // past the hedge delay
	if started.Load() != 1 || cancelled.Load() != 1 || finished.Load() != 0 {
		t.Fatalf("backend attempts: %d started, %d cancelled, %d ran on — want 1, 1, 0", started.Load(), cancelled.Load(), finished.Load())
	}
}

// The gate reads a body once, bounded, and forwards what it read
// verbatim — parseable or not — routing on what the backend's own
// decoder will make of it.
func TestGateBodyHandling(t *testing.T) {
	var got atomic.Value
	b := newFake(t)
	b.jobs = func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		got.Store(string(raw))
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"backend says no"}`))
	}
	g, ts := newGateTS(t, Config{Backends: []BackendConf{{Name: "a", URL: b.ts.URL}}})
	g.classOf.Store(&map[string]string{"heavy": "heavy-class"})

	for _, body := range []string{`{"workload":"heavy"`, `{"Workload":"heavy"} trailing`, `not json`} {
		resp, answer := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(answer), "backend says no") || got.Load() != body {
			t.Errorf("%q: HTTP %d %s, backend saw %q — want the backend's 400 for the same bytes", body, resp.StatusCode, answer, got.Load())
		}
	}
	// Routed by class: once with nothing decoded, once as the backend
	// would decode it (case-folded key, trailing bytes ignored), once as
	// garbage.
	if snap := g.Snapshot()[0]; snap.RoutedByClass["heavy-class"] != 1 || snap.Routed != 3 {
		t.Errorf("routed by class %v, want heavy-class 1 of 3", snap.RoutedByClass)
	}

	// Past the bound, unary or batch — one item too large or too many of
	// them — the answer is 413 and nothing is forwarded.
	b.batch = b.jobs
	huge := `{"workload":"` + strings.Repeat("x", wire.MaxBody) + `"}`
	for _, row := range []struct{ name, path, body string }{
		{"oversized body", "/v1/jobs", huge},
		{"oversized batch item", "/v1/jobs:batch", `{"jobs":[{"workload":"w"},` + huge + `]}`},
		{"oversized batch", "/v1/jobs:batch", `{"jobs":[` + strings.Repeat(`{"workload":"w"},`, wire.MaxBody/16) + `{"workload":"w"}]}`},
	} {
		got.Store("")
		resp, answer := postJSON(t, ts.URL+row.path, row.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(answer), "too large") || got.Load() != "" {
			t.Errorf("%s: HTTP %d %s, backend saw %d bytes — want 413 and nothing forwarded", row.name, resp.StatusCode, answer, len(got.Load().(string)))
		}
	}
}

// A backend's poll answers are read through the same MaxBody bound as a
// job's: a /v1/stats body past it fails to decode, and the gate keeps
// the snapshot it polled before instead of buffering the whole body.
func TestPollBodyBounded(t *testing.T) {
	var oversized atomic.Bool
	var bigServed atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/workloads", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`[]`)) })
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		if !oversized.Load() {
			w.Write([]byte(`{"workers":4,"queued":7,"inflight":0}`))
			return
		}
		w.Write([]byte(`{"workers":9,"queued":99,"inflight":0,"pad":"` + strings.Repeat("x", wire.MaxBody) + `"}`))
		bigServed.Add(1)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	g, _ := newGateTS(t, Config{Backends: []BackendConf{{Name: "a", URL: ts.URL}}})
	b := g.backends[0]
	snapshot := func() *polled {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.polled
	}
	deadline := time.Now().Add(5 * time.Second)
	for p := snapshot(); p == nil || p.Workers != 4; p = snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("the first /v1/stats poll never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	oversized.Store(true)
	// A backend's polls run one after another, so once the second
	// oversized body is served the first one's decode has finished.
	for bigServed.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the gate stopped polling /v1/stats")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p := snapshot(); p.Workers != 4 || p.Queued != 7 {
		t.Fatalf("polled snapshot after an oversized body = %+v, want the previous workers 4, queued 7", *p)
	}
}
