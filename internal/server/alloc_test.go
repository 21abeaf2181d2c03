package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"wats/internal/amc"
	"wats/internal/runtime"
)

// newAllocEnv builds a server without the HTTP layer: the zero-alloc
// gates drive submitSync/runBatch directly, since the net/http stack
// allocates per request no matter what we do.
func newAllocEnv(tb testing.TB) *Server {
	tb.Helper()
	rt, err := runtime.New(runtime.Config{
		Arch:                  amc.MustNew("test", amc.CGroup{Freq: 2.0, N: 4}),
		DisableSpeedEmulation: true,
		Seed:                  7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{Runtime: rt, Workloads: testWorkloads()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Shutdown)
	return srv
}

// noopWL returns a pointer to the noop control workload (stable across
// calls so the measured closure captures no per-iteration state).
func noopWL(tb testing.TB, s *Server) *Workload {
	tb.Helper()
	wl, ok := s.cfg.Workloads["noop"]
	if !ok {
		tb.Fatal("noop workload missing from registry")
	}
	return &wl
}

// submitNoopOnce is one full pooled unary admission: reserve, account,
// spawn, wait, encode, release. Panics (not t.Fatal: it runs inside
// AllocsPerRun) on any non-steady-state outcome.
func submitNoopOnce(s *Server, wl *Workload, deadline time.Duration) {
	if s.reserve(1) != 1 {
		panic("no admission headroom")
	}
	s.metrics.Submitted()
	rec, code := s.submitSync(context.Background(), wl, Params{}, deadline)
	if rec == nil || code != http.StatusOK {
		panic("noop job did not complete")
	}
	rec.unref()
}

// TestZeroAllocUnaryAdmission is the tentpole's acceptance gate: a
// steady-state unary admission — pooled record, reused context, manual
// encoding — performs zero heap allocations end to end, including the
// worker-side spawn/complete machinery (AllocsPerRun counts mallocs
// across all goroutines).
func TestZeroAllocUnaryAdmission(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	s := newAllocEnv(t)
	wl := noopWL(t, s)
	// Warm the pools: record pool, runtime task pool, obs rings, metric
	// class registration, response buffer sizing.
	for i := 0; i < 100; i++ {
		submitNoopOnce(s, wl, 0)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		submitNoopOnce(s, wl, 0)
	}); allocs != 0 {
		t.Errorf("unary admission: %v allocs/op, want 0", allocs)
	}
}

// TestZeroAllocUnaryAdmissionWithDeadline adds the deadline wheel to the
// path: arming an entry on the shared heap and dropping it when the job
// finishes must not allocate either (the heap is pre-sized, and the
// wheel goroutine started by the warmup's first entry sleeps until that
// entry's deadline, long after the measurement ends).
func TestZeroAllocUnaryAdmissionWithDeadline(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	s := newAllocEnv(t)
	wl := noopWL(t, s)
	const deadline = 30 * time.Second
	for i := 0; i < 100; i++ {
		submitNoopOnce(s, wl, deadline)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		submitNoopOnce(s, wl, deadline)
	}); allocs != 0 {
		t.Errorf("unary admission with deadline: %v allocs/op, want 0", allocs)
	}
}

// TestZeroAllocBatchAdmission gates the batch core: one reserve for the
// whole batch, sixteen pooled records in flight at once, the shared
// response buffer — still zero allocations per batch at steady state.
func TestZeroAllocBatchAdmission(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	s := newAllocEnv(t)
	wl := noopWL(t, s)
	const n = 16
	items := make([]batchItem, n)
	var buf []byte
	runOnce := func() {
		for i := range items {
			items[i] = batchItem{wl: wl, params: Params{}}
		}
		admitted, valid := s.runBatch(items)
		if admitted != n || valid != n {
			panic("batch not fully admitted")
		}
		buf = s.appendBatchResponse(buf[:0], items)
		s.releaseBatch(items)
	}
	for i := 0; i < 50; i++ {
		runOnce()
	}
	if allocs := testing.AllocsPerRun(100, runOnce); allocs != 0 {
		t.Errorf("batch admission: %v allocs/op (per %d-job batch), want 0", allocs, n)
	}
}

// BenchmarkUnaryAdmission measures the pooled unary path end to end
// (admission through encoded response). Run with -benchmem: the allocs
// column is the regression gate `make bench-serve` watches.
func BenchmarkUnaryAdmission(b *testing.B) {
	s := newAllocEnv(b)
	wl := noopWL(b, s)
	for i := 0; i < 100; i++ {
		submitNoopOnce(s, wl, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitNoopOnce(s, wl, 0)
	}
}

// BenchmarkBatchAdmission16 measures one 16-job batch per op.
func BenchmarkBatchAdmission16(b *testing.B) {
	s := newAllocEnv(b)
	wl := noopWL(b, s)
	const n = 16
	items := make([]batchItem, n)
	var buf []byte
	runOnce := func() {
		for i := range items {
			items[i] = batchItem{wl: wl, params: Params{}}
		}
		if admitted, _ := s.runBatch(items); admitted != n {
			panic("batch not fully admitted")
		}
		buf = s.appendBatchResponse(buf[:0], items)
		s.releaseBatch(items)
	}
	for i := 0; i < 20; i++ {
		runOnce()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
}
