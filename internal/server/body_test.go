package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"wats/internal/runtime"
	"wats/internal/wire"
)

// Every watsd POST body is read through the wire.MaxBody bound: one byte
// over it is 413 with the usual JSON error, and no job is admitted.
func TestPostBodiesAreBounded(t *testing.T) {
	e := newEnv(t, nil)
	// One JSON value that is not complete until its last byte, so a
	// streaming decoder cannot stop early: cap+1 bytes in all.
	huge := `{"pad":"` + strings.Repeat("x", wire.MaxBody+1-len(`{"pad":""}`)) + `"}`
	if len(huge) != wire.MaxBody+1 {
		t.Fatalf("body is %d bytes, want cap+1", len(huge))
	}
	for _, path := range []string{"/v1/jobs", "/v1/jobs:batch", "/v1/resize", "/v1/trace/start"} {
		resp, err := http.Post(e.ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(body["error"], "too large") {
			t.Errorf("%s with cap+1 bytes: status %d, body %v (%v), want 413 and a JSON error", path, resp.StatusCode, body, err)
		}
	}
	// At the cap the bound is silent: the body is judged as JSON.
	atCap := huge[:len(huge)-3] + `"}`
	resp, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader(atCap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(atCap) != wire.MaxBody || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("%d-byte body: status %d, want 400 (unknown workload)", len(atCap), resp.StatusCode)
	}
	if c := e.srv.Metrics().Counters(); c.Submitted != 0 {
		t.Errorf("%d jobs submitted by refused bodies", c.Submitted)
	}
	if e.srv.CaptureStatus() != nil {
		t.Error("a refused /v1/trace/start body started a capture")
	}
}

// The handler answers through DecodeJob's two sides alike: a body the
// scanner owns and one only encoding/json reads run the same job, and a
// malformed one gets encoding/json's words.
func TestSubmitDecodesEitherWay(t *testing.T) {
	e := newEnv(t, nil)
	for _, body := range []string{
		`{"workload":"sleep","params":{"n":1}}`,
		`{"Workload":"sleep","params":{"n":1,"unknown":[1,2]},"deadline_ms":null}  {"trailing":1}`,
	} {
		resp, v := e.submit(t, body)
		if resp.StatusCode != http.StatusOK || v.Status != StatusCompleted || v.Workload != "sleep" {
			t.Errorf("%s: %d %+v", body, resp.StatusCode, v)
		}
	}
	for body, want := range map[string]string{
		``:                        `{"error":"bad request body: EOF"}`,
		`{"workload":"sha1"`:      `{"error":"bad request body: unexpected EOF"}`,
		`{"params":{"size":"x"}}`: `{"error":"bad request body: json: cannot unmarshal string into Go struct field Params.params.size of type int"}`,
		`{"deadline_ms":1.5}`:     `{"error":"bad request body: json: cannot unmarshal number 1.5 into Go struct field submitRequest.deadline_ms of type int64"}`,
		// The one rejection whose text moved with the decoder: it names the
		// params type, which now lives in wire (was "server.Params").
		`{"params":7}`: `{"error":"bad request body: json: cannot unmarshal number into Go struct field submitRequest.params of type wire.Params"}`,
	} {
		resp, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || strings.TrimSpace(string(got)) != want {
			t.Errorf("%q: %d %s, want 400 %s", body, resp.StatusCode, got, want)
		}
	}
}

// PeekExecMS reads the encoder's real output for every final status the
// way encoding/json does.
func TestPeekExecMSOnEncoderOutput(t *testing.T) {
	ws := panicWorkloads()
	ws["fail"] = Workload{Name: "fail", Class: "fail", Run: func(*runtime.Ctx, Params) (any, error) {
		return nil, errors.New(`it "failed"`)
	}}
	e := newEnv(t, func(cfg *Config) { cfg.Workloads = ws })
	for body, status := range map[string]string{
		`{"workload":"sleep","params":{"n":2}}`:                            StatusCompleted,
		`{"workload":"sha1","params":{"size":4096}}`:                       StatusCompleted,
		`{"workload":"noop"}`:                                              StatusCompleted,
		`{"workload":"fail"}`:                                              StatusFailed,
		`{"workload":"boom"}`:                                              StatusPanicked,
		`{"workload":"fanout","params":{"n":64,"size":5},"deadline_ms":1}`: StatusExpired,
	} {
		resp, err := http.Post(e.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var want JobView
		if err := json.Unmarshal(raw, &want); err != nil || want.Status != status {
			t.Fatalf("%s: %s (%v), want status %s", body, raw, err, status)
		}
		if got, ok := wire.PeekExecMS(raw); !ok || got != want.ExecMS {
			t.Errorf("%s: PeekExecMS = %v, %v; encoding/json reads %v", raw, got, ok, want.ExecMS)
		}
	}
	e.rt.Wait()
}
