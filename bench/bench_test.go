package main

import (
	"math"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// The manifest and the program must name the same workloads, and the
// manifest must stay inside the limits the benchmark contract sets.
func TestManifestAgreesWithProgram(t *testing.T) {
	man := testManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Errorf("manifest declares %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range man.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("manifest workload %q has no implementation", w.Name)
		}
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDecl{}, man.EndToEnd...), man.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric %q: bad or repeated name", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no bounded end-to-end metric setup_s in seconds")
	}
	// A run is go run's start-up, set-up, warm-up of up to 0.3 of the
	// measured phase, and the phase; the driver's runs must fit 3420 s
	// with two builds.
	runs := 4 + 22*len(man.Workloads)
	if man.RunSeconds < 1 || man.RunSeconds > 60 || float64(runs)*(1.3*float64(man.RunSeconds)+2) > 3420-200 {
		t.Errorf("run_seconds %d: %d runs do not fit 3420 s", man.RunSeconds, runs)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,5 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean of 2,8 = %v", got)
	}
}

// Two windows of one second: three jobs complete in the first, one in
// the second; CPU and allocations are charged to the jobs of the window.
func TestWindowMetrics(t *testing.T) {
	const ms = int64(time.Millisecond)
	samples := []sample{
		{start: 100 * ms, lat: 10 * ms}, {start: 200 * ms, lat: 20 * ms}, {start: 300 * ms, lat: 30 * ms},
		{start: 1500 * ms, lat: 40 * ms},
		{start: 1990 * ms, lat: 20 * ms}, // completes after the last window: not binned
	}
	bounds := []boundary{
		{usage{0, 0}, 0}, {usage{300, 30}, 3}, {usage{400, 80}, 4},
	}
	got := metricSet{}
	windowMetrics(got, samples, bounds, 0, time.Second)
	want := map[string]struct {
		windows [2]float64
		best    float64
	}{
		"jobs_per_s": {[2]float64{3, 1}, 3}, "lat_p50_ms": {[2]float64{20, 40}, 20},
		"cpu_us_per_job": {[2]float64{100, 100}, 100}, "allocs_per_job": {[2]float64{10, 50}, 10},
	}
	for name, w := range want {
		m := got[name]
		if len(m.Windows) != 2 || m.Windows[0] != w.windows[0] || m.Windows[1] != w.windows[1] {
			t.Errorf("%s windows = %v, want %v", name, m.Windows, w.windows)
		}
		if m.Value != w.best || m.N != 4 {
			t.Errorf("%s = %v over %d samples, want the best window %v over 4", name, m.Value, m.N, w.best)
		}
	}
}

func TestTagRoundTrip(t *testing.T) {
	body := taggedBody(noopJob.prefix)
	for _, tag := range []int64{tagOf(1), tagOf(799) + maxJobs - 1} {
		putTag(body, tag)
		if got := readTag(body); got != tag {
			t.Errorf("readTag(%s) = %d, want %d", body, got, tag)
		}
	}
	if got := readTag([]byte(`{"workload":"noop"}`)); got != -1 {
		t.Errorf("readTag of an untagged body = %d, want -1", got)
	}
}

// A hedged job: one gate.handler over two overlapping gate.backend_rtt
// spans, each with its own server.handler. Self time subtracts the union
// of the children, not their sum.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	job := []span{
		{kind: spSubmit, node: noNode, start: 0, end: 100},
		{kind: spGate, node: noNode, start: 10, end: 90},
		{kind: spBackend, node: 0, start: 20, end: 70},
		{kind: spBackend, node: 1, start: 40, end: 80},
		{kind: spServer, node: 0, start: 30, end: 60},
		{kind: spServer, node: 1, start: 50, end: 75},
	}
	self, parents := selfTimes(job)
	wantSelf := []int64{20, 20, 20, 15, 30, 25}
	wantParents := []int{-1, 0, 1, 1, 2, 3}
	for i := range job {
		if self[i] != wantSelf[i] || parents[i] != wantParents[i] {
			t.Errorf("span %d (%s): self %d parent %d, want self %d parent %d",
				i, spanNames[job[i].kind], self[i], parents[i], wantSelf[i], wantParents[i])
		}
	}
}

func TestScheduleIsFixedBySeed(t *testing.T) {
	a, b := schedule(7, 2*time.Second), schedule(7, 2*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules of %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if c := schedule(8, 2*time.Second); len(c) == len(a) && c[0] == a[0] && c[1] == a[1] {
		t.Error("another seed gave the same schedule")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "rate", Better: "higher", Bound: 0.10}
	runs := func(vs ...float64) []metric {
		out := make([]metric, len(vs))
		for i, v := range vs {
			out[i] = metric{Value: v}
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDecl
		a, b []metric
		want string
	}{
		{"steady", lower, runs(100, 101, 99), runs(100, 102, 100), "unchanged"},
		{"regressed", lower, runs(100, 101, 99), runs(120, 121, 119), "worse"},
		{"improved", lower, runs(100, 101, 99), runs(90, 91, 89), "better"},
		{"throughput fell", higher, runs(100, 101, 99), runs(80, 81, 79), "worse"},
		{"too noisy to tell", lower, runs(100, 130, 80), runs(105, 125, 85), "unresolved"},
		{"noisy but every run better", lower, runs(100, 130, 90), runs(50, 60, 45), "better"},
	} {
		if _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// Every workload, untraced and traced, at a fiftieth of the real run
// length: each run must pass its own checks and report exactly the
// manifest's metrics for its kind, and nothing may be left running.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	man := testManifest(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the benchmark's load shape; main also binds to one CPU
	before := runtime.NumGoroutine()
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range man.Workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(man, w.Name, options{seed: 3, seconds: 0.2, traced: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			for _, d := range man.decls(traced) {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %q missing or in unit %q", w.Name, traced, d.Name, m.Unit)
				}
				if !traced && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %q = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			for k := range r.Metrics {
				if !name.MatchString(k) {
					t.Errorf("%s: metric name %q", w.Name, k)
				}
			}
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after teardown:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
