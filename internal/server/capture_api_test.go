package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"wats/internal/amc"
	"wats/internal/obs"
	"wats/internal/runtime"
	"wats/internal/trace"
)

// newObsEnv builds a server over a runtime with observability on, so the
// capture endpoints have a tracer to attach to.
func newObsEnv(t *testing.T) *testEnv {
	t.Helper()
	arch := amc.MustNew("test", amc.CGroup{Freq: 2.0, N: 4})
	rt, err := runtime.New(runtime.Config{
		Arch:                  arch,
		DisableSpeedEmulation: true,
		Seed:                  7,
		Obs:                   obs.NewTracer(arch.NumCores(), 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Runtime: rt, Workloads: testWorkloads()})
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

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTraceStartStopLifecycle(t *testing.T) {
	env := newObsEnv(t)
	path := filepath.Join(t.TempDir(), "cap.ndjson")

	// Start a capture, run a job through the service, stop, and verify
	// the sealed file holds the job's decision + end records.
	resp := postJSON(t, env.ts.URL+"/v1/trace/start", map[string]any{"path": path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d", resp.StatusCode)
	}
	var st trace.CaptureStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Active || st.Path != path {
		t.Fatalf("start stats: %+v", st)
	}

	// A second start conflicts.
	resp = postJSON(t, env.ts.URL+"/v1/trace/start", map[string]any{"path": path + ".2"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double start: %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Healthz shows the running capture.
	hr, err := http.Get(env.ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]json.RawMessage
	if err := json.NewDecoder(hr.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if string(hz["capture"]) == "" || string(hz["capture"]) == "null" {
		t.Fatalf("healthz capture field: %s", hz["capture"])
	}

	// Run one synchronous job so the ledger sees real traffic.
	jr := postJSON(t, env.ts.URL+"/v1/jobs", map[string]any{"workload": "sha1", "params": map[string]any{"size": 4096, "seed": 3}})
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("job: %d", jr.StatusCode)
	}
	jr.Body.Close()

	resp = postJSON(t, env.ts.URL+"/v1/trace/stop", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stop: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Active || st.Decisions == 0 || st.Ends == 0 {
		t.Fatalf("stop stats: %+v", st)
	}

	// A second stop conflicts, and healthz goes back to null.
	resp = postJSON(t, env.ts.URL+"/v1/trace/stop", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double stop: %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	if got := env.srv.CaptureStatus(); got != nil {
		t.Fatalf("capture status after stop: %+v", got)
	}

	// The sealed file parses: header describes the live runtime, records
	// join, footer carries totals.
	cap, err := trace.ParseCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if cap.Header.Policy == "" || len(cap.Header.GroupCounts) == 0 {
		t.Fatalf("header: %+v", cap.Header)
	}
	if len(cap.Decisions) == 0 || len(cap.Ends) == 0 {
		t.Fatalf("records: %d decisions, %d ends", len(cap.Decisions), len(cap.Ends))
	}
	if cap.Footer == nil || cap.Footer.TasksRun == 0 {
		t.Fatalf("footer: %+v", cap.Footer)
	}
	ends := map[uint64]bool{}
	for _, e := range cap.Ends {
		ends[e.ID] = true
	}
	joined := 0
	for _, d := range cap.Decisions {
		if d.Rule == "" {
			t.Fatalf("decision without a rule label: %+v", d)
		}
		if ends[d.ID] {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("no decision joined with an end record")
	}
	// The ledger must detach cleanly: with the sink gone, more jobs run
	// without touching the closed capture.
	jr = postJSON(t, env.ts.URL+"/v1/jobs", map[string]any{"workload": "sha1", "params": map[string]any{"size": 4096, "seed": 3}})
	if jr.StatusCode != http.StatusOK {
		t.Fatalf("job after stop: %d", jr.StatusCode)
	}
	jr.Body.Close()
}

func TestTraceStartWithoutTracer(t *testing.T) {
	env := newEnv(t, nil) // no Obs on the runtime
	resp := postJSON(t, env.ts.URL+"/v1/trace/start",
		map[string]any{"path": filepath.Join(t.TempDir(), "cap.ndjson")})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("start without tracer: %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestTraceEndpointsRejectGet(t *testing.T) {
	env := newObsEnv(t)
	for _, ep := range []string{"/v1/trace/start", "/v1/trace/stop"} {
		resp, err := http.Get(env.ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s GET: %d, want 405", ep, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
