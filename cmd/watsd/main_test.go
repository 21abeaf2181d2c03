package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wats/internal/client"
	"wats/internal/trace"
)

func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("watsd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.arch == nil || o.arch.NumCores() != 4 {
		t.Fatalf("default arch: %v", o.arch)
	}
	if o.autoscale {
		t.Fatal("autoscale should default off")
	}
	if o.minWorkers != 2 || o.maxWorkers != 16 {
		t.Fatalf("default worker bounds: %d..%d", o.minWorkers, o.maxWorkers)
	}
	if o.logFormat != "text" || o.capture != "" {
		t.Fatalf("observability defaults: log-format=%q capture=%q", o.logFormat, o.capture)
	}
}

func TestParseOptionsCaptureAndLogFormat(t *testing.T) {
	o, err := parse(t, "-capture", "out/cap.ndjson", "-log-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	if o.capture != "out/cap.ndjson" || o.logFormat != "json" {
		t.Fatalf("options: %+v", o)
	}
}

func TestParseOptionsRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the usage error
	}{
		{"zero stall threshold", []string{"-stall-threshold", "0s"}, "-stall-threshold"},
		{"negative stall threshold", []string{"-stall-threshold", "-5s"}, "-stall-threshold"},
		{"zero fault rate", []string{"-fault", "panic=0"}, "-fault"},
		{"negative fault rate", []string{"-fault", "delay=-0.1:1ms"}, "-fault"},
		{"zero fault delay", []string{"-fault", "delay=0.1:0s"}, "-fault"},
		{"garbage fault spec", []string{"-fault", "explode=0.5"}, "-fault"},
		{"garbage netfault spec", []string{"-fault", "latency=banana"}, "-fault"},
		{"netfault rate above one", []string{"-fault", "latency=1.5:10ms"}, "-fault"},
		{"netfault reset+blackhole over one", []string{"-fault", "reset=0.7,blackhole=0.7"}, "-fault"},
		{"flap without network clause", []string{"-fault", "panic=0.1,flap=1s:2s"}, "-fault"},
		{"netfault flag removed", []string{"-netfault", "latency=1:10ms"}, "netfault"},
		{"zero min workers", []string{"-min-workers", "0"}, "-min-workers"},
		{"negative min workers", []string{"-min-workers", "-3"}, "-min-workers"},
		{"zero max workers", []string{"-max-workers", "0"}, "-max-workers"},
		{"negative max workers", []string{"-max-workers", "-1"}, "-max-workers"},
		{"min above max", []string{"-min-workers", "8", "-max-workers", "4"}, "-min-workers"},
		{"autoscale min below groups", []string{"-autoscale", "-min-workers", "1"}, "c-groups"},
		{"negative slo", []string{"-autoscale-slo", "-1s"}, "-autoscale-slo"},
		{"zero fast and slow", []string{"-fast", "0", "-slow", "0"}, "-fast/-slow"},
		{"bad policy", []string{"-policy", "FIFO"}, "-policy"},
		{"snatching policy RTS", []string{"-policy", "RTS"}, "behave as Cilk"},
		{"snatching policy WATS-TS", []string{"-policy", "WATS-TS"}, "behave as WATS"},
		{"zero max inflight", []string{"-max-inflight", "0"}, "-max-inflight"},
		{"bad log format", []string{"-log-format", "xml"}, "-log-format"},
		{"empty log format", []string{"-log-format", ""}, "-log-format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v accepted, want usage error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseOptionsAutoscale(t *testing.T) {
	o, err := parse(t, "-autoscale", "-min-workers", "2", "-max-workers", "12", "-autoscale-slo", "250ms")
	if err != nil {
		t.Fatal(err)
	}
	if !o.autoscale || o.minWorkers != 2 || o.maxWorkers != 12 {
		t.Fatalf("autoscale options: %+v", o)
	}
	// min-workers below max but above groups: valid without autoscale too.
	if _, err := parse(t, "-min-workers", "1"); err != nil {
		t.Fatalf("non-autoscale min-workers=1 should parse: %v", err)
	}
}

func TestHTTPServerIsBounded(t *testing.T) {
	s := newHTTPServer("127.0.0.1:0", nil)
	if s.ReadHeaderTimeout != 5*time.Second || s.IdleTimeout != 120*time.Second {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 5s, 2m0s", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v would cut long jobs short", s.ReadTimeout, s.WriteTimeout)
	}
}

// The daemon's lifecycle in process: run serves a loopback listener with
// task panics and delays injected, an overload burst through a retrying
// client gets every panic back as a structured 500 and lands each one
// exactly once on /metrics, and cancelling the context (SIGTERM in main)
// drains to nothing in flight and seals the capture.
func TestRunLifecycle(t *testing.T) {
	capPath := filepath.Join(t.TempDir(), "capture.ndjson")
	opts, err := parse(t, "-max-inflight", "8", "-fault", "panic=0.05,delay=0.05:2ms",
		"-stall-threshold", "5s", "-capture", capPath)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, opts, ln, slog.New(slog.NewTextHandler(io.Discard, nil))) }()
	base := "http://" + ln.Addr().String()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	get("/v1/version")
	get("/v1/healthz")

	// 32 submitters against 8 admission slots: jobs are shed and come back
	// through the retry path.
	cl, err := client.New(client.Config{BaseURL: base, MaxRetries: 3,
		BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond, MaxRetryAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	codes := map[int]int{}
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				res, err := cl.SubmitJob(context.Background(), []byte(`{"workload":"sha1","params":{"size":4096}}`))
				mu.Lock()
				switch {
				case err != nil:
					codes[-1]++
				case res.StatusCode == http.StatusInternalServerError:
					var v struct{ Error string }
					if json.Unmarshal(res.Body, &v) != nil || v.Error != "panic" {
						t.Errorf("500 without a panic body: %s", res.Body)
					}
					codes[res.StatusCode]++
				default:
					codes[res.StatusCode]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.Logf("outcomes by status: %v; client %+v", codes, cl.Stats())
	if codes[-1] != 0 || codes[http.StatusOK] == 0 || cl.Stats().Retries == 0 {
		t.Fatalf("want no transport errors, some 200s and some retried sheds")
	}
	panicked := codes[http.StatusInternalServerError]
	if panicked == 0 {
		t.Fatalf("no injected panic reached the client: %v", codes)
	}
	metrics := get("/metrics")
	for _, series := range []string{"wats_panics_total", `wats_jobs_total{status="panicked"}`} {
		if want := fmt.Sprintf("\n%s %d\n", series, panicked); !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q (the client saw %d panicked jobs)", strings.TrimSpace(want), panicked)
		}
	}
	if want := fmt.Sprintf(`wats_jobs_total{status="completed"} %d`, codes[http.StatusOK]); !strings.Contains(metrics, want) {
		t.Errorf("/metrics lacks %q", want)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	c, err := trace.ParseCaptureFile(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if c.Footer == nil {
		t.Fatal("capture has no footer: run returned without sealing it")
	}
}
