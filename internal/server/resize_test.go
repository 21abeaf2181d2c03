package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wats/internal/amc"
	"wats/internal/runtime"
)

// newAsymEnv is newEnv over a 2-c-group asymmetric runtime, so the bare
// worker-count form of /v1/resize has a real apportionment to do.
func newAsymEnv(t *testing.T) *testEnv {
	t.Helper()
	rt, err := runtime.New(runtime.Config{
		Arch: amc.MustNew("asym",
			amc.CGroup{Freq: 2, N: 1}, amc.CGroup{Freq: 1, N: 1}),
		Policy:                "WATS",
		DisableSpeedEmulation: true,
		Seed:                  7,
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

func postResize(t *testing.T, env *testEnv, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(env.ts.URL+"/v1/resize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("body of %q: %v", body, err)
	}
	return resp.StatusCode, v
}

func shapeOf(v map[string]any) []int {
	raw, _ := v["shape"].([]any)
	out := make([]int, len(raw))
	for i, x := range raw {
		out[i] = int(x.(float64))
	}
	return out
}

func TestResizeEndpoint(t *testing.T) {
	env := newAsymEnv(t)

	// Bare total: apportioned over the base machine's 1:1 group ratio.
	code, v := postResize(t, env, `{"workers":8}`)
	if code != http.StatusOK {
		t.Fatalf("workers=8: status %d (%v)", code, v)
	}
	if s := shapeOf(v); v["workers"].(float64) != 8 || s[0] != 4 || s[1] != 4 {
		t.Fatalf("workers=8 gave workers=%v shape=%v, want 8 as [4 4]", v["workers"], s)
	}
	if _, ok := v["resize_ms"]; !ok {
		t.Fatal("response missing resize_ms")
	}
	if got := env.rt.Workers(); got != 8 {
		t.Fatalf("runtime has %d workers after resize, want 8", got)
	}

	// Explicit shape: passed through as-is, including a shrink.
	code, v = postResize(t, env, `{"shape":[2,1]}`)
	if code != http.StatusOK {
		t.Fatalf("shape=[2,1]: status %d (%v)", code, v)
	}
	if s := shapeOf(v); s[0] != 2 || s[1] != 1 {
		t.Fatalf("shape=[2,1] applied as %v", s)
	}
	if got := env.rt.RetiredWorkers(); got != 5 {
		t.Fatalf("shrink retired %d workers, want 5", got)
	}

	// Jobs still complete on the resized pool.
	resp, err := http.Post(env.ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"sleep","params":{"n":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job after resize: status %d", resp.StatusCode)
	}
}

func TestResizeEndpointRejectsBadRequests(t *testing.T) {
	env := newAsymEnv(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"both workers and shape", `{"workers":4,"shape":[2,2]}`},
		{"neither", `{}`},
		{"zero workers", `{"workers":0}`},
		{"empty group", `{"shape":[4,0]}`},
		{"wrong group count", `{"shape":[4]}`},
		{"garbage body", `{"workers":`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, v := postResize(t, env, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("body %q: status %d (%v), want 400", tc.body, code, v)
			}
		})
	}
	resp, err := http.Get(env.ts.URL + "/v1/resize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/resize: status %d, want 405", resp.StatusCode)
	}
	// Nothing above may have moved the pool.
	if got := env.rt.Workers(); got != 2 {
		t.Fatalf("rejected requests changed the pool to %d workers", got)
	}
}
