package harness

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/gate"
	"wats/internal/obs"
	wrt "wats/internal/runtime"
	"wats/internal/server"
)

// The four arrival processes of cmd/watsaccept at seed 1, and the counts
// the committed BENCH_*.json carry for them: if Schedule stops being the
// process the artifacts were taken with, these numbers move.
func TestScheduleReplaysCommittedCounts(t *testing.T) {
	const s = time.Second
	one := []Stream{{Class: "job"}}
	mixed := []Stream{{Class: "heavy"}, {Class: "light"}}
	count := func(as []Arrival, class string) (n int) {
		for _, a := range as {
			if a.Class == class {
				n++
			}
		}
		return n
	}

	elastic := Schedule(1, one, []Phase{{3 * s, []float64{25}}, {4 * s, []float64{400}}, {3 * s, []float64{25}}}, s)
	if len(elastic) != 1764 {
		t.Errorf("elastic profile: %d arrivals, committed 1764", len(elastic))
	}
	policy := Schedule(1, mixed, []Phase{{4 * s, []float64{50, 200}}}, s)
	if h, l := count(policy, "heavy"), count(policy, "light"); h != 207 || l != 842 {
		t.Errorf("gate policy run: %d heavy + %d light, committed 207 + 842", h, l)
	}
	if n := len(Schedule(1, mixed, []Phase{{7 * s, []float64{50, 200}}}, s)); n != 1822 {
		t.Errorf("gate failover run: %d arrivals, committed 1822", n)
	}
	if n := len(Schedule(1, one, []Phase{{3 * s, []float64{150}}}, 0)); n != 467 {
		t.Errorf("chaos run: %d arrivals, committed 467", n)
	}

	if again := Schedule(1, mixed, []Phase{{4 * s, []float64{50, 200}}}, s); !reflect.DeepEqual(policy, again) {
		t.Error("same seed gave a different schedule")
	}
	if other := Schedule(2, mixed, []Phase{{4 * s, []float64{50, 200}}}, s); reflect.DeepEqual(policy, other) {
		t.Error("a different seed gave the same schedule")
	}
	// Steady is per phase: off for the first second after 0 s, 3 s and 7 s.
	var last time.Duration
	for _, a := range elastic {
		if a.At < last || a.At > 10*s {
			t.Fatalf("arrival at %v after one at %v in a 10 s profile", a.At, last)
		}
		last = a.At
		inRamp := a.At < s || (a.At >= 3*s && a.At < 4*s) || (a.At >= 7*s && a.At < 8*s)
		if a.Steady == inRamp {
			t.Fatalf("arrival at %v: steady=%v", a.At, a.Steady)
		}
	}
}

func TestTallyQuantilesAndEmptyWindow(t *testing.T) {
	var samples []Sample
	for i := 1; i <= 100; i++ { // latencies 100 ms down to 1 ms: Fold must sort
		samples = append(samples, Sample{Class: "a", Code: http.StatusOK, Lat: time.Duration(101-i) * time.Millisecond, Steady: i > 50})
	}
	samples = append(samples,
		Sample{Class: "a", Code: http.StatusTooManyRequests},
		Sample{Class: "a", Code: http.StatusInternalServerError},
		Sample{Class: "a", Code: -1},
		Sample{Class: "b", Code: http.StatusOK, Lat: time.Hour})
	got := Fold(samples, func(s Sample) bool { return s.Class == "a" })
	// sorted[int(q*(n-1))]: int(0.5*99)=49 -> 50 ms, int(0.99*99)=98 -> 99 ms;
	// the steady half is 1..50 ms, int(0.99*49)=48 -> 49 ms.
	want := Tally{Sent: 103, OK: 100, Shed: 1, Failed: 2, P50Ms: 50, P99Ms: 99, SteadyP99Ms: 49, MaxMs: 100}
	if got != want {
		t.Errorf("Fold = %+v, want %+v", got, want)
	}
	if w := got.Window(); w != (Window{Sent: 103, OK: 100, P50Ms: 50, P99Ms: 99, MaxMs: 100}) {
		t.Errorf("Window = %+v", w)
	}
	if all := Fold(samples, nil); all.Sent != 104 || all.MaxMs != 3.6e6 {
		t.Errorf("Fold(nil) = %+v", all)
	}
	if empty := Fold(samples, func(Sample) bool { return false }); empty != (Tally{}) {
		t.Errorf("empty window = %+v", empty)
	}
	if one := Fold(samples[:1], nil); one.P50Ms != 100 || one.P99Ms != 100 || one.MaxMs != 100 || one.SteadyP99Ms != 0 {
		t.Errorf("single sample = %+v", one)
	}
	if got := Round3(0.12349); got != 0.123 {
		t.Errorf("Round3(0.12349) = %v", got)
	}
}

func TestNodeRestartsOnItsOriginalAddress(t *testing.T) {
	n, err := startNode(NodeConfig{Arch: amc.MustNew("n", amc.CGroup{Freq: 2.0, N: 2}), MaxInflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer n.RT.Shutdown()
	defer n.StopHTTP()
	addr := n.Addr
	get := func() error {
		resp, err := http.Get("http://" + addr + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	if err := get(); err != nil {
		t.Fatalf("before stop: %v", err)
	}
	n.StopHTTP()
	if err := get(); err == nil {
		t.Fatal("stopped node still answers")
	}
	if err := n.StartHTTP(); err != nil {
		t.Fatal(err)
	}
	if n.Addr != addr {
		t.Fatalf("restarted on %s, was on %s", n.Addr, addr)
	}
	if err := get(); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}

// A deliberately broken ledger: each conservation rule names itself.
func TestConservationNamesEachViolation(t *testing.T) {
	node := func(name string, submitted, completed, expired uint64) nodeLedger {
		return nodeLedger{name: name, JobCounters: obs.JobCounters{Submitted: submitted, Completed: completed, Expired: expired}}
	}
	driver := Tally{Sent: 20, OK: 18, Shed: 1, Failed: 1}
	if bad := conservation([]nodeLedger{node("a", 10, 9, 1), node("b", 10, 10, 0)}, driver, 1); bad != nil {
		t.Fatalf("a sound ledger (19 completed, 18 ok, 1 hedge) was refused: %q", bad)
	}
	for _, tc := range []struct {
		rule   string
		nodes  []nodeLedger
		driver Tally
		hedges uint64
	}{
		{"node-conservation: a ", []nodeLedger{node("a", 10, 8, 1), node("b", 10, 10, 0)}, driver, 0},
		{"node-inflight: b ", []nodeLedger{node("a", 8, 8, 0), {name: "b", JobCounters: obs.JobCounters{Submitted: 10, Completed: 10}, inflight: 1}}, driver, 0},
		{"driver-conservation: ", []nodeLedger{node("a", 18, 18, 0)}, Tally{Sent: 21, OK: 18, Shed: 1, Failed: 1}, 0},
		{"cluster-conservation: ", []nodeLedger{node("a", 9, 9, 0), node("b", 8, 8, 0)}, driver, 3},     // one job missing
		{"cluster-conservation: ", []nodeLedger{node("a", 10, 10, 0), node("b", 10, 10, 0)}, driver, 1}, // one beyond the hedge allowance
		{"cluster-conservation: ", []nodeLedger{node("a", 19, 19, 0)}, driver, 0},                       // no hedging: exact
	} {
		bad := conservation(tc.nodes, tc.driver, tc.hedges)
		if len(bad) != 1 || !strings.HasPrefix(bad[0], tc.rule) {
			t.Errorf("want exactly one %q violation, got %q", tc.rule, bad)
		}
	}
}

// One node alone and two behind a gate: an open-loop run leaves nothing
// behind, and a job the driver did not count is caught at Close.
func TestClusterRunHoldsInvariants(t *testing.T) {
	pulse := map[string]server.Workload{"pulse": {Name: "pulse", Class: "pulse",
		Run: func(*wrt.Ctx, server.Params) (any, error) { time.Sleep(time.Millisecond); return "ok", nil }}}
	node := func(name string) NodeConfig {
		return NodeConfig{Arch: amc.MustNew(name, amc.CGroup{Freq: 2.0, N: 2}), MaxInflight: 64, Workloads: pulse}
	}
	arrivals := Schedule(1, []Stream{{"pulse", []byte(`{"workload":"pulse"}`)}},
		[]Phase{{300 * time.Millisecond, []float64{200}}}, 100*time.Millisecond)
	for _, tc := range []struct {
		name  string
		nodes []NodeConfig
		gate  *gate.Config
	}{
		{"direct", []NodeConfig{node("n0")}, nil},
		{"gated", []NodeConfig{node("n0"), node("n1")}, &gate.Config{
			Policy: gate.Policy{Kind: gate.PolicyRoundRobin}, PollInterval: 20 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := StartCluster(tc.nodes, tc.gate)
			if err != nil {
				t.Fatal(err)
			}
			samples := c.OpenLoop(arrivals)
			if got := Fold(samples, nil); got.Sent != len(arrivals) || got.OK != got.Sent {
				t.Errorf("sent %d of %d, %d ok", got.Sent, len(arrivals), got.OK)
			}
			if tc.gate == nil {
				// An uncounted job: the nodes completed one more than the
				// driver's ledger says.
				resp, err := http.Post(c.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"pulse"}`))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				http.DefaultClient.CloseIdleConnections()
				bad := c.Close()
				if len(bad) != 1 || !strings.HasPrefix(bad[0], "cluster-conservation: ") {
					t.Errorf("want one cluster-conservation violation, got %q", bad)
				}
				return
			}
			if bad := c.Close(); bad != nil {
				t.Errorf("violations: %q", bad)
			}
		})
	}
}

func TestReportCollectsFailuresAndWritesTheArtifact(t *testing.T) {
	rep := &Report{Scenario: "demo"}
	rep.Check(true, "holds")
	rep.Check(false, "ratio %.2f > %.1f", 2.5, 2.0)
	rep.Fail("node-inflight: n0 still holds 1 jobs")
	rep.Fail()
	if want := []string{"ratio 2.50 > 2.0", "node-inflight: n0 still holds 1 jobs"}; !reflect.DeepEqual(rep.Failures, want) {
		t.Errorf("Failures = %q, want %q", rep.Failures, want)
	}
	dir := filepath.Join(t.TempDir(), "out", "accept")
	if err := rep.Write(dir, map[string]int{"sent": 467}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "BENCH_demo.json"))
	if err != nil || string(got) != "{\n  \"sent\": 467\n}\n" {
		t.Errorf("artifact %q, err %v", got, err)
	}
}
