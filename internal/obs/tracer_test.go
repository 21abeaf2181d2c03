package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, 1 << 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Buckets[0] != 1 { // v=0
		t.Fatalf("bucket 0 = %d, want 1", s.Buckets[0])
	}
	if s.Buckets[1] != 1 { // v=1
		t.Fatalf("bucket 1 = %d, want 1", s.Buckets[1])
	}
	if s.Buckets[2] != 2 { // v=2,3
		t.Fatalf("bucket 2 = %d, want 2", s.Buckets[2])
	}
	if s.Buckets[3] != 1 { // v=4
		t.Fatalf("bucket 3 = %d, want 1", s.Buckets[3])
	}
	if s.Buckets[10] != 1 { // v=1000 in [512,1024)
		t.Fatalf("bucket 10 = %d, want 1", s.Buckets[10])
	}
	if s.Buckets[histBuckets-1] != 1 { // 2^50 saturates
		t.Fatalf("last bucket = %d, want 1", s.Buckets[histBuckets-1])
	}
	if s.MaxBucket() != histBuckets-1 {
		t.Fatalf("MaxBucket = %d", s.MaxBucket())
	}
	if got := BucketBound(3); got != 7 {
		t.Fatalf("BucketBound(3) = %d, want 7", got)
	}
}

func TestMetricsHandler(t *testing.T) {
	tr := NewTracer(2, 64)
	tr.Spawn(0, 0, "ga", 3)
	tr.Pop(0, 0, "ga")
	tr.Steal(1, 0, 0, "ga", 2, 3*time.Microsecond)
	tr.StealTry(1, 1, 3)
	tr.Complete(1, 0, "ga", 5*time.Millisecond)
	tr.Complete(1, 0, "sha1", time.Millisecond)
	tr.Repartition(200*time.Microsecond, map[string]int{"ga": 0, "sha1": 1})
	tr.Cancel(1, "ga")

	jobs := &JobMetrics{}
	jobs.Submitted()
	jobs.Completed("ga", 2*time.Millisecond, 10*time.Millisecond)
	jobs.Expired("sha1", time.Millisecond)
	jobs.Shed()

	h := MetricsHandler(tr,
		func() []WorkerCounters {
			return []WorkerCounters{{Worker: 0, Group: 0, TasksRun: 2, Steals: 1, StealAttempts: 5, Cancelled: 1}}
		},
		jobs)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	for _, want := range []string{
		"wats_spawns_total 1",
		"wats_steals_total 1",
		"wats_steal_attempts_total 5", // 2 probes on the steal + 3 failed
		"wats_completes_total 2",
		"wats_repartitions_total 1",
		`wats_class_work_nanos_bucket{class="ga",le="+Inf"} 1`,
		`wats_class_work_nanos_count{class="sha1"} 1`,
		"wats_steal_latency_nanos_count 1",
		"wats_repartition_duration_nanos_count 1",
		`wats_worker_steal_attempts_total{worker="0",group="0"} 5`,
		"wats_cancels_total 1",
		`wats_worker_cancelled_total{worker="0",group="0"} 1`,
		`wats_jobs_total{status="completed"} 1`,
		`wats_jobs_total{status="shed"} 1`,
		`wats_job_queue_wait_nanos_count{class="ga"} 1`,
		`wats_job_queue_wait_nanos_count{class="sha1"} 1`,
		`wats_job_exec_nanos_count{class="ga"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n--- body ---\n%s", want, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestNewMuxEndpoints(t *testing.T) {
	tr := NewTracer(1, 64)
	tr.Spawn(0, 0, "x", 1)
	mux := NewMux(tr, func() any { return map[string]int{"workers": 1} }, nil, nil)
	for path, wantIn := range map[string]string{
		"/metrics":          "wats_spawns_total 1",
		"/debug/wats":       `"workers": 1`,
		"/debug/wats/trace": `"traceEvents"`,
		"/debug/vars":       `"wats"`,
		"/":                 "/debug/pprof/",
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("%s: status %d", path, rec.Code)
			continue
		}
		if !strings.Contains(rec.Body.String(), wantIn) {
			t.Errorf("%s: body missing %q", path, wantIn)
		}
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EvSpawn: "spawn", EvPop: "pop", EvStealTry: "steal-try",
		EvSteal: "steal", EvSnatch: "snatch", EvComplete: "complete",
		EvRepartition: "repartition", EvCancel: "cancel",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := EventKind(250).String(); !strings.Contains(got, "250") {
		t.Errorf("unknown kind renders as %q", got)
	}
}
