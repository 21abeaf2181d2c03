package fault

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func inner() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(strings.Repeat("x", 200)))
	})
}

// TestMiddlewareGrayModel: /v1/jobs is degraded, /v1/readyz is not.
func TestMiddlewareGrayModel(t *testing.T) {
	spec, _ := ParseSpec("latency=1:80ms", 1)
	in := New(spec)
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs", inner())
	mux.Handle("/v1/readyz", inner())
	ts := httptest.NewServer(Middleware(mux, in))
	defer ts.Close()

	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := time.Since(t0); d > 50*time.Millisecond {
		t.Fatalf("readyz took %v — control plane must stay crisp", d)
	}
	t0 = time.Now()
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if d := time.Since(t0); d < 80*time.Millisecond {
		t.Fatalf("jobs took %v, want >= 80ms injected latency", d)
	}
	if c := in.Counts(); c.Latencies != 1 {
		t.Fatalf("counts = %+v, want exactly 1 latency (readyz exempt)", c)
	}
}

// TestMiddlewareLatencyPreAdmission: a caller that cancels during the
// injected stall never reaches the inner handler.
func TestMiddlewareLatencyPreAdmission(t *testing.T) {
	spec, _ := ParseSpec("latency=1:10s", 1)
	admitted := make(chan struct{}, 1)
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		admitted <- struct{}{}
	}), New(spec))
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs", nil)
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected context deadline error")
	}
	select {
	case <-admitted:
		t.Fatal("inner handler ran despite pre-admission cancel")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestMiddlewareDrip: the 200-byte body arrives in >= 3 paced chunks.
func TestMiddlewareDrip(t *testing.T) {
	spec, _ := ParseSpec("drip=1:30ms:64", 1)
	ts := httptest.NewServer(Middleware(inner(), New(spec)))
	defer ts.Close()

	t0 := time.Now()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 200 {
		t.Fatalf("body = %d bytes, want 200", len(body))
	}
	// 200 bytes at 64/chunk = 4 chunks = 3 inter-chunk pauses >= 90ms.
	if d := time.Since(t0); d < 90*time.Millisecond {
		t.Fatalf("dripped body arrived in %v, want >= 90ms", d)
	}
}

// TestMiddlewareReset: the connection dies without a response.
func TestMiddlewareReset(t *testing.T) {
	spec, _ := ParseSpec("reset=1", 1)
	ts := httptest.NewServer(Middleware(inner(), New(spec)))
	defer ts.Close()
	if _, err := http.Get(ts.URL + "/v1/jobs"); err == nil {
		t.Fatal("expected a transport error from injected reset")
	}
}

// TestTransportFaults: the RoundTripper wrapper injects the same menu
// from the client side.
func TestTransportFaults(t *testing.T) {
	ts := httptest.NewServer(inner())
	defer ts.Close()

	spec, _ := ParseSpec("reset=1", 1)
	cl := &http.Client{Transport: NewTransport(nil, New(spec), "b0")}
	if _, err := cl.Get(ts.URL); err == nil || !strings.Contains(err.Error(), "injected connection reset") {
		t.Fatalf("want injected reset, got %v", err)
	}

	spec, _ = ParseSpec("latency=1:60ms", 1)
	cl = &http.Client{Transport: NewTransport(nil, New(spec), "b0")}
	t0 := time.Now()
	resp, err := cl.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(resp.Body)
	resp.Body.Close()
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Fatalf("latency fault: round trip took %v, want >= 60ms", d)
	}

	spec, _ = ParseSpec("drip=1:20ms:64", 1)
	in := New(spec)
	cl = &http.Client{Transport: NewTransport(nil, in, "b0")}
	t0 = time.Now()
	resp, err = cl.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(body) != 200 {
		t.Fatalf("dripped body = %d bytes, want 200", len(body))
	}
	if d := time.Since(t0); d < 40*time.Millisecond {
		t.Fatalf("dripped read took %v, want >= 40ms", d)
	}
	if c := in.Counts(); c.Drips != 1 {
		t.Fatalf("counts = %+v, want 1 drip", c)
	}

	spec, _ = ParseSpec("blackhole=1", 1)
	cl = &http.Client{Transport: NewTransport(nil, New(spec), "b0"), Timeout: 80 * time.Millisecond}
	if _, err := cl.Get(ts.URL); err == nil {
		t.Fatal("expected timeout from blackhole")
	}
}
