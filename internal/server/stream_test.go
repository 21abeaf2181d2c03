package server

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"wats/internal/client"
	"wats/internal/trace"
	"wats/internal/wire"
)

// dialStream opens a wats-stream/1 connection to the test server via the
// real client, exercising the handshake + HELLO path end to end.
func (e *testEnv) dialStream(t testing.TB) *client.StreamClient {
	t.Helper()
	c, err := client.New(client.Config{BaseURL: e.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.DialStream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

// collect reads n results (any order) keyed by request id.
func collectResults(t *testing.T, sc *client.StreamClient, n int) map[uint64]wire.Result {
	t.Helper()
	got := make(map[uint64]wire.Result, n)
	timeout := time.After(30 * time.Second)
	for len(got) < n {
		select {
		case res, ok := <-sc.Results():
			if !ok {
				t.Fatalf("result stream closed after %d/%d results: %v", len(got), n, sc.Err())
			}
			got[res.ID] = res
		case <-timeout:
			t.Fatalf("timed out with %d/%d results", len(got), n)
		}
	}
	return got
}

// A pipelined burst over one connection: every submission gets exactly
// one correlated result, successes and per-item failures interleaved.
func TestStreamSubmitAndResults(t *testing.T) {
	e := newEnv(t, nil)
	sc := e.dialStream(t)
	noopID, ok := sc.WorkloadID("noop")
	if !ok {
		t.Fatalf("HELLO table missing noop: %+v", sc.Workloads())
	}
	sleepID, ok := sc.WorkloadID("sleep")
	if !ok {
		t.Fatal("HELLO table missing sleep")
	}
	const n = 32
	for i := uint64(1); i <= n; i++ {
		if err := sc.Submit(&wire.Submit{ID: i, Workload: noopID}); err != nil {
			t.Fatal(err)
		}
	}
	// An unknown workload id and an expiring sleeper ride the same burst.
	if err := sc.Submit(&wire.Submit{ID: 100, Workload: 200}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Submit(&wire.Submit{ID: 101, Workload: sleepID, N: 2000, DeadlineMS: 20}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, sc, n+2)
	for i := uint64(1); i <= n; i++ {
		if got[i].Outcome != wire.OutcomeOK {
			t.Errorf("job %d: outcome %d (%s), want OK", i, got[i].Outcome, got[i].Err)
		}
	}
	if got[100].Outcome != wire.OutcomeBadReq {
		t.Errorf("unknown workload: outcome %d, want BadReq", got[100].Outcome)
	}
	if got[101].Outcome != wire.OutcomeExpired {
		t.Errorf("expired sleeper: outcome %d (%s), want Expired", got[101].Outcome, got[101].Err)
	}
	if got[101].ExecUS > 1_000_000 {
		t.Errorf("expired sleeper ran %dus; deadline did not cut it", got[101].ExecUS)
	}
}

// Stream shed: with zero headroom a SUBMIT comes back OutcomeShed with a
// Retry-After hint, and the connection stays usable.
func TestStreamShed(t *testing.T) {
	release := make(chan struct{})
	e := newEnv(t, func(c *Config) {
		c.MaxInflight = 1
		c.Workloads["block"] = blockerWorkload(release)
	})
	sc := e.dialStream(t)
	blockID, _ := sc.WorkloadID("block")
	noopID, _ := sc.WorkloadID("noop")
	if err := sc.Submit(&wire.Submit{ID: 1, Workload: blockID}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return e.srv.Inflight() == 1 })
	if err := sc.Submit(&wire.Submit{ID: 2, Workload: noopID}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	shed := <-sc.Results()
	if shed.ID != 2 || shed.Outcome != wire.OutcomeShed {
		t.Fatalf("result %+v, want id 2 shed", shed)
	}
	if shed.RetryAfterMS <= 0 {
		t.Error("shed result without retry-after hint")
	}
	close(release)
	res := <-sc.Results()
	if res.ID != 1 || res.Outcome != wire.OutcomeOK {
		t.Fatalf("blocker result %+v, want id 1 OK", res)
	}
}

// Drain during in-flight streaming: admitted jobs complete and deliver
// results (zero drops), later submissions on the same connection come
// back OutcomeDraining, and new stream connections are refused.
func TestStreamDrainInFlight(t *testing.T) {
	release := make(chan struct{})
	e := newEnv(t, func(c *Config) {
		c.Workloads["block"] = blockerWorkload(release)
	})
	sc := e.dialStream(t)
	blockID, _ := sc.WorkloadID("block")
	noopID, _ := sc.WorkloadID("noop")
	const inflight = 3
	for i := uint64(1); i <= inflight; i++ {
		if err := sc.Submit(&wire.Submit{ID: i, Workload: blockID}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return e.srv.Inflight() == inflight })

	drained := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { drained <- e.srv.Drain(ctx) }()
	waitFor(t, 10*time.Second, func() bool { return e.srv.Draining() })

	// The drain is waiting on the blocked jobs; a new submission on the
	// live connection is refused without touching admission.
	if err := sc.Submit(&wire.Submit{ID: 50, Workload: noopID}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	if res := <-sc.Results(); res.ID != 50 || res.Outcome != wire.OutcomeDraining {
		t.Fatalf("submit during drain: %+v, want id 50 draining", res)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	got := collectResults(t, sc, inflight)
	for i := uint64(1); i <= inflight; i++ {
		if got[i].Outcome != wire.OutcomeOK {
			t.Errorf("in-flight job %d after drain: outcome %d, want OK (zero drops)", i, got[i].Outcome)
		}
	}
	// A fresh stream is refused while draining.
	c2, err := client.New(client.Config{BaseURL: e.ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.DialStream(context.Background()); err == nil {
		t.Error("DialStream succeeded against a draining server")
	}
}

// Closing the client mid-flight must not lose accounting: admitted jobs
// still finish server-side and the session tears down cleanly.
func TestStreamClientDisconnectInFlight(t *testing.T) {
	release := make(chan struct{})
	e := newEnv(t, func(c *Config) {
		c.Workloads["block"] = blockerWorkload(release)
	})
	sc := e.dialStream(t)
	blockID, _ := sc.WorkloadID("block")
	for i := uint64(1); i <= 4; i++ {
		if err := sc.Submit(&wire.Submit{ID: i, Workload: blockID}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return e.srv.Inflight() == 4 })
	sc.Close()
	close(release)
	// The server finishes the admitted jobs and releases their slots even
	// though nobody is reading results anymore.
	waitInflightZero(t, e.srv)
}

// The ledger sees streaming entry exactly like unary entry: one decision
// + one end per admitted job; rejections (bad request) contribute none.
func TestStreamLedgerCaptureCounts(t *testing.T) {
	e := newObsEnv(t)
	path := t.TempDir() + "/stream-cap.ndjson"
	if _, err := e.srv.StartCapture(trace.CaptureConfig{Path: path}); err != nil {
		t.Fatal(err)
	}
	sc := e.dialStream(t)
	noopID, _ := sc.WorkloadID("noop")
	const n = 5
	for i := uint64(1); i <= n; i++ {
		if err := sc.Submit(&wire.Submit{ID: i, Workload: noopID}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Submit(&wire.Submit{ID: 99, Workload: 250}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, sc, n+1)
	if got[99].Outcome != wire.OutcomeBadReq {
		t.Fatalf("bad workload id: %+v", got[99])
	}
	e.rt.Wait()
	if _, err := e.srv.StopCapture(); err != nil {
		t.Fatal(err)
	}
	cap, err := trace.ParseCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.Decisions) != n || len(cap.Ends) != n {
		t.Errorf("ledger: %d decisions / %d ends, want %d/%d for %d admitted jobs",
			len(cap.Decisions), len(cap.Ends), n, n, n)
	}
}

// shortStreamIdle lowers the stream idle timeout for one test. Sessions
// read it when they begin, so only sessions the test opens see it.
func shortStreamIdle(t *testing.T, d time.Duration) {
	old := streamIdleTimeout
	streamIdleTimeout = d
	t.Cleanup(func() { streamIdleTimeout = old })
}

// A client that upgrades and then sends nothing, or stops halfway through
// a frame, is dropped after the idle timeout instead of holding its
// session open forever.
func TestStreamDropsSilentClients(t *testing.T) {
	shortStreamIdle(t, 50*time.Millisecond)
	e := newEnv(t, nil)
	frame := wire.AppendSubmit(nil, &wire.Submit{ID: 1})
	for _, tc := range []struct {
		name string
		send []byte
	}{{"silent", nil}, {"half frame", frame[:len(frame)/2]}} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", e.ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			req := "GET /v1/stream HTTP/1.1\r\nHost: wats\r\nConnection: Upgrade\r\nUpgrade: " + wire.Proto + "\r\n\r\n"
			if _, err := conn.Write(append([]byte(req), tc.send...)); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("session still open after 10s: %v", err)
			}
			if !bytes.HasPrefix(got, []byte("HTTP/1.1 101 ")) {
				t.Fatalf("no upgrade before the drop: %q", got)
			}
		})
	}
}

// Idling past the timeout ends only the read side: a job admitted before
// still finishes and its result is written before the session closes.
func TestStreamIdleClientStillGetsItsResult(t *testing.T) {
	shortStreamIdle(t, 50*time.Millisecond)
	release := make(chan struct{})
	e := newEnv(t, func(c *Config) {
		c.Workloads["block"] = blockerWorkload(release)
	})
	sc := e.dialStream(t)
	blockID, _ := sc.WorkloadID("block")
	if err := sc.Submit(&wire.Submit{ID: 1, Workload: blockID}); err != nil {
		t.Fatal(err)
	}
	if err := sc.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return e.srv.Inflight() == 1 })
	time.Sleep(200 * time.Millisecond) // four idle timeouts with the job still running
	close(release)
	if res, ok := <-sc.Results(); !ok || res.ID != 1 || res.Outcome != wire.OutcomeOK {
		t.Fatalf("result %+v (open %v), want id 1 OK", res, ok)
	}
	select {
	case res, ok := <-sc.Results():
		if ok {
			t.Fatalf("a result after the last one: %+v", res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session still open 10s after its last result")
	}
}

// BenchmarkStreamClosedLoop is serve_noop_stream's load shape: one
// connection, a window of 64 noop jobs, one Submit+Flush per result.
// One op is one job; allocs count both ends of the loopback.
func BenchmarkStreamClosedLoop(b *testing.B) {
	e := newEnv(b, nil)
	sc := e.dialStream(b)
	noopID, _ := sc.WorkloadID("noop")
	var sent uint64
	submit := func() {
		sent++
		if err := sc.Submit(&wire.Submit{ID: sent, Workload: noopID}); err != nil {
			b.Fatal(err)
		}
		if err := sc.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for sent < 64 && sent < uint64(b.N) {
		submit()
	}
	for done := 0; done < b.N; done++ {
		if res, ok := <-sc.Results(); !ok || res.Outcome != wire.OutcomeOK {
			b.Fatalf("result %+v (open %v): %v", res, ok, sc.Err())
		}
		if sent < uint64(b.N) {
			submit()
		}
	}
}
