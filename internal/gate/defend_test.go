package gate

import (
	"log/slog"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestHedgeWinsAgainstGrayBackend: backend "gray" answers sync submits
// after a long stall; "ok" answers fast. With hedging on, a request
// whose primary lands on gray must come back at hedge speed with the
// hedge headers set, and gray's stall must not be waited out. A loser the
// gate cancelled is no failure of its backend: it counts as no outcome,
// no transport error and no re-route (the repository benchmark once read
// every hedge as one of each).
func TestHedgeWinsAgainstGrayBackend(t *testing.T) {
	var grayStarted, grayCancelled, grayDone, okAnswered atomic.Int64
	gray := newFake(t)
	gray.jobs = func(w http.ResponseWriter, r *http.Request) {
		grayStarted.Add(1)
		select {
		case <-time.After(2 * time.Second):
			grayDone.Add(1)
			w.Write([]byte(`{"id":"g1","workload":"w","status":"completed","exec_ms":2000}`))
		case <-r.Context().Done():
			grayCancelled.Add(1)
		}
	}
	ok := newFake(t)
	ok.jobs = func(w http.ResponseWriter, r *http.Request) {
		okAnswered.Add(1)
		w.Write([]byte(`{"id":"j1","workload":"w","status":"completed","exec_ms":3}`))
	}
	// Round-robin guarantees gray gets primaries; the tiny MaxDelay
	// keeps the test fast with a cold latency ring.
	g, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "gray", URL: gray.ts.URL}, {Name: "ok", URL: ok.ts.URL}},
		Policy:   Policy{Kind: PolicyRoundRobin},
		Hedge:    HedgeConfig{Enabled: true, MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	sawHedge := false
	for i := 0; i < 6; i++ {
		t0 := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w"}`)
		lat := time.Since(t0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		if lat > time.Second {
			t.Fatalf("submit %d took %v: the gray stall was waited out", i, lat)
		}
		if resp.Header.Get(HeaderHedged) == "1" {
			sawHedge = true
			if resp.Header.Get(HeaderAttempts) != "2" {
				t.Fatalf("hedged answer reports %q attempts, want 2", resp.Header.Get(HeaderAttempts))
			}
		}
	}
	if !sawHedge {
		t.Fatal("no request was hedged despite gray primaries")
	}
	if grayStarted.Load() == 0 {
		t.Fatal("gray never received a primary — test setup broken")
	}
	if grayDone.Load() != 0 {
		t.Fatal("a cancelled gray attempt ran to completion inside the test window")
	}

	// Once every loser has drained — gray saw each of its requests
	// cancelled, the gate has none in flight to it, and the result has
	// crossed the one channel to drainLosers — the books must show gray's
	// attempts as routed and nothing else.
	deadline := time.Now().Add(2 * time.Second)
	for (grayCancelled.Load() != grayStarted.Load() || g.backends[0].inflight.Load() != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	snap := g.Snapshot()
	if s := snap[0]; s.Routed != uint64(grayStarted.Load()) || s.Reroutes != 0 || len(s.Outcomes) != 0 {
		t.Errorf("gray after %d cancelled losers: routed %d, reroutes %d, outcomes %v — want them routed, 0 and none",
			grayStarted.Load(), s.Routed, s.Reroutes, s.Outcomes)
	}
	var outcomes uint64
	for _, s := range snap {
		for _, n := range s.Outcomes {
			outcomes += n
		}
	}
	if outcomes != uint64(okAnswered.Load()) {
		t.Errorf("%d outcomes counted for %d answered attempts", outcomes, okAnswered.Load())
	}
	if d := g.Defenses(); d.RerouteLaunches != 0 {
		t.Errorf("%d re-routes launched with no failure anywhere", d.RerouteLaunches)
	}
}

// TestAsyncNeverHedged: async submissions must not hedge — a hedged
// async pair could both be admitted. With a stalling primary and an
// instant hedge delay, the second backend must still see zero POSTs.
func TestAsyncNeverHedged(t *testing.T) {
	slow := newFake(t)
	slow.jobs = func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j1","workload":"w","status":"queued"}`))
	}
	var otherPosts atomic.Int64
	other := newFake(t)
	other.jobs = func(w http.ResponseWriter, r *http.Request) {
		otherPosts.Add(1)
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"j2","workload":"w","status":"queued"}`))
	}
	// "slow" is listed first and favored by config-order tie-break.
	_, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "slow", URL: slow.ts.URL}, {Name: "other", URL: other.ts.URL}},
		Hedge:    HedgeConfig{Enabled: true, MinDelay: time.Millisecond, MaxDelay: time.Millisecond},
	})
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w","async":true}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit %d: HTTP %d: %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get(HeaderHedged) != "" {
			t.Fatal("async submission carried the hedged header")
		}
	}
	if n := otherPosts.Load(); n != 0 {
		t.Fatalf("async submissions hedged: second backend saw %d POSTs", n)
	}
}

// TestRetryBudgetBoundsReroutes: with every backend shedding, re-route
// volume is capped by the budget burst instead of MaxAttempts × N.
func TestRetryBudgetBoundsReroutes(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
	}
	f1, f2 := newFake(t), newFake(t)
	f1.jobs, f2.jobs = shed, shed
	g, ts := newGateTS(t, Config{
		Backends: []BackendConf{{Name: "a", URL: f1.ts.URL}, {Name: "b", URL: f2.ts.URL}},
		Budget:   BudgetConfig{Ratio: 0.1, Burst: 3},
	})
	for i := 0; i < 40; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", `{"workload":"w"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit %d: HTTP %d, want 429 passthrough", i, resp.StatusCode)
		}
	}
	d := g.Defenses()
	if d.Primaries != 40 {
		t.Fatalf("primaries = %d, want 40", d.Primaries)
	}
	// 40 primaries earn 0.1 each on a burst-3 bucket: re-routes must sit
	// near burst + 0.1×40 = 7, nowhere near the unbudgeted 40.
	if d.RerouteLaunches > 8 {
		t.Fatalf("reroute launches = %d, want <= 8 under budget", d.RerouteLaunches)
	}
	if d.BudgetDenied == 0 {
		t.Fatal("budget never denied a re-route despite sustained shedding")
	}
}

// ejectEnv builds a pollerless gate with the evaluator configured but
// its loop NOT running, so tests can drive ejectOnce with hand-picked
// clocks without racing the background ticker.
func ejectEnv(t *testing.T, n int, cfg EjectConfig) *Gate {
	t.Helper()
	g := scoreEnv(t, Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}, n)
	g.cfg.Eject = cfg
	g.log = slog.Default()
	return g
}

// feed folds n full round trips of ms milliseconds into b's row for
// class "w".
func feed(g *Gate, b *backend, n int, ms float64) {
	for i := 0; i < n; i++ {
		g.learn(b, "w", 0, ms, false)
	}
}

// TestEjectionAndProbeReentry: a backend whose RTT EWMA is k× the
// cluster median for the sustain window is demoted to probe-only, then
// re-admitted once its latency recovers.
func TestEjectionAndProbeReentry(t *testing.T) {
	const probe = 30 * time.Millisecond
	g := ejectEnv(t, 3, EjectConfig{Enabled: true, Factor: 3, Window: 50 * time.Millisecond, Probe: probe, MinSamples: 3, RecoverFactor: 0.7})
	a, b, c := g.backends[0], g.backends[1], g.backends[2]
	// Feed the signal directly: a and b at ~10ms, c at ~100ms (10× the
	// median), all past MinSamples.
	feed(g, a, 6, 10)
	feed(g, b, 6, 10)
	feed(g, c, 6, 100)
	now := time.Unix(1_000_000, 0)
	g.now = func() time.Time { return now }
	g.ejectOnce(now) // starts the sustain clock
	now = now.Add(60 * time.Millisecond)
	g.ejectOnce(now) // past Window: ejects
	if !c.ejected {
		t.Fatal("c not ejected despite 10x sustained excess")
	}
	if a.ejected || b.ejected {
		t.Fatal("healthy backend ejected")
	}
	if c.ejections.Load() != 1 {
		t.Fatalf("c ejections = %d, want 1", c.ejections.Load())
	}

	// Ejected backends are excluded from normal picks but receive the
	// periodic probe on primary picks: one now, the next a Probe later.
	if picked := pick(g, "w"); picked != c {
		t.Fatalf("first primary pick after the ejection went to %q, want the probe to c", picked.name)
	}
	if c.probes.Load() != 1 {
		t.Fatalf("probe counter reads %d, want 1", c.probes.Load())
	}
	if picked := pick(g, "w"); picked == c {
		t.Fatal("ejected backend received a second probe inside one Probe interval")
	}
	if c.view("w", probe, now.Add(probe-time.Nanosecond)).probeDue || !c.view("w", probe, now.Add(probe)).probeDue {
		t.Fatal("probe not due exactly one Probe interval after the last")
	}
	// Re-route picks (non-empty tried set) must avoid the ejected node
	// while alternatives remain, due probe or not.
	now = now.Add(probe)
	if picked := pick(g, "w", a); picked == c {
		t.Fatal("re-route pick chose the ejected backend over a healthy one")
	}

	// Recovery: fold in fast probe results until the EWMA drops under
	// Factor×RecoverFactor× median, then one evaluator pass re-admits.
	feed(g, c, 40, 10)
	g.ejectOnce(now.Add(30 * time.Millisecond))
	if c.ejected {
		t.Fatal("c not re-admitted after recovery")
	}
}

// TestEjectionSparesLastBackend: with every peer unroutable, the
// evaluator must keep the outlier in rotation — degraded beats
// unreachable.
func TestEjectionSparesLastBackend(t *testing.T) {
	g := ejectEnv(t, 2, EjectConfig{Enabled: true, Factor: 3, Window: 10 * time.Millisecond, MinSamples: 3, RecoverFactor: 0.7})
	a, b := g.backends[0], g.backends[1]
	feed(g, a, 6, 10)
	feed(g, b, 6, 200)
	a.ready = false // the only healthy peer goes away
	now := time.Now()
	g.ejectOnce(now)
	g.ejectOnce(now.Add(20 * time.Millisecond))
	if b.ejected {
		t.Fatal("ejected the last routable backend")
	}
	a.ready = true // peer returns: now the ejection may proceed
	g.ejectOnce(now.Add(40 * time.Millisecond))
	if !b.ejected {
		t.Fatal("outlier kept in rotation despite a healthy alternative")
	}
}

// TestCensoredRTTRatchet: censored observations only push the estimate
// up, never down — a wedged backend must not look fast because its
// only full samples are the rare quick answers.
func TestCensoredRTTRatchet(t *testing.T) {
	g := ejectEnv(t, 1, EjectConfig{})
	b := g.backends[0]
	g.learn(b, "w", 0, 50, false)
	g.learn(b, "w", 0, 5, true) // lower bound below estimate: no-op
	if got := b.row().table["w"].rttMS; got != 50 {
		t.Fatalf("downward censored sample moved EWMA to %v", got)
	}
	g.learn(b, "w", 0, 150, true) // lower bound above estimate: folds in
	if got := b.row().table["w"].rttMS; got <= 50 {
		t.Fatalf("upward censored sample ignored, EWMA still %v", got)
	}
}
