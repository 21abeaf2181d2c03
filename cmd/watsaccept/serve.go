package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"wats/internal/amc"
	"wats/internal/client"
	"wats/internal/harness"
	"wats/internal/wire"
)

// Scenario serve: admission throughput by submission mode (DESIGN.md
// §12, BENCH_serve.json).
//
// Hypothesis: the noop workload finishes in nanoseconds, so a job costs
// what the serving machinery costs — HTTP framing, admission, the pooled
// job lifecycle, response encoding — and spreading the framing over a
// batch, or replacing it with wats-stream/1 frames, at least doubles
// jobs/s.
//
// Varied: the submission path — unary POST /v1/jobs, POST /v1/jobs:batch,
// persistent wats-stream/1 connections.
//
// Controlled: one node (4 x 2.0 GHz) and one listener for all three
// modes, noop jobs, closed loop, the same run length, 32 submitters for
// unary and batch; stream keeps 4 x 128 submissions outstanding.
//
// Gates: zero submission errors; every mode completed jobs; batch or
// stream reaches 2x the unary jobs/s.
type serveParams struct {
	Duration time.Duration // measured run per mode
	Workers  int           // closed-loop submitters, unary and batch
	Batch    int           // jobs per batch request
	Conns    int           // stream connections
	Window   int           // outstanding submissions per stream connection
}

var serve = serveParams{Duration: 2 * time.Second, Workers: 32, Batch: 16, Conns: 4, Window: 128}

type modeResult struct {
	Mode       string  `json:"mode"`
	Completed  int     `json:"completed"`
	Errors     int     `json:"errors"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
}

type serveReport struct {
	Benchmark      string     `json:"benchmark"`
	Generated      string     `json:"generated"`
	DurationSec    float64    `json:"duration_sec"`
	Workers        int        `json:"workers"`
	BatchSize      int        `json:"batch_size"`
	StreamConns    int        `json:"stream_conns"`
	StreamWindow   int        `json:"stream_window"`
	Unary          modeResult `json:"unary"`
	Batch          modeResult `json:"batch"`
	Stream         modeResult `json:"stream"`
	BatchSpeedup   float64    `json:"batch_speedup"`
	StreamSpeedup  float64    `json:"stream_speedup"`
	AllocGate      string     `json:"alloc_gate"`
	GoMaxProcs     int        `json:"gomaxprocs"`
	RuntimeWorkers int        `json:"runtime_workers"`
}

func (p serveParams) run(rep *harness.Report, check bool) (any, error) {
	arch := amc.MustNew("bench", amc.CGroup{Freq: 2.0, N: 4})
	c, err := harness.StartCluster([]harness.NodeConfig{{Arch: arch, MaxInflight: 1 << 13}}, nil)
	if err != nil {
		return nil, err
	}
	defer func() { rep.Fail(c.Close()...) }()
	cl, err := client.New(client.Config{BaseURL: c.URL})
	if err != nil {
		return nil, err
	}
	fmt.Printf("serve: %v per mode, %d workers, batch %d, %d streams x window %d\n",
		p.Duration, p.Workers, p.Batch, p.Conns, p.Window)

	r := &serveReport{
		Benchmark:   "zero-alloc-admission",
		Generated:   time.Now().UTC().Format(time.RFC3339),
		DurationSec: p.Duration.Seconds(),
		Workers:     p.Workers, BatchSize: p.Batch, StreamConns: p.Conns, StreamWindow: p.Window,
		AllocGate:      "TestZeroAllocUnaryAdmission, TestZeroAllocBatchAdmission: 0 allocs/op (make bench-serve)",
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		RuntimeWorkers: arch.NumCores(),
	}
	r.Unary = p.mode(c, "unary", p.Workers, func(col *collector, stop func() bool) { submitUnary(cl, col, stop) })
	r.Batch = p.mode(c, "batch", p.Workers, func(col *collector, stop func() bool) { submitBatch(cl, p.Batch, col, stop) })
	r.Stream = p.mode(c, "stream", p.Conns, func(col *collector, stop func() bool) { submitStream(cl, p.Window, col, stop) })
	r.BatchSpeedup = harness.Round3(r.Batch.JobsPerSec / r.Unary.JobsPerSec)
	r.StreamSpeedup = harness.Round3(r.Stream.JobsPerSec / r.Unary.JobsPerSec)
	fmt.Printf("  batch %.2fx unary, stream %.2fx unary\n", r.BatchSpeedup, r.StreamSpeedup)

	if check {
		for _, m := range []modeResult{r.Unary, r.Batch, r.Stream} {
			rep.Check(m.Errors == 0, "%s: %d submission errors", m.Mode, m.Errors)
			rep.Check(m.Completed > 0, "%s completed nothing", m.Mode)
		}
		rep.Check(r.BatchSpeedup >= 2.0 || r.StreamSpeedup >= 2.0,
			"neither batch (%.2fx) nor stream (%.2fx) reached 2x unary throughput", r.BatchSpeedup, r.StreamSpeedup)
	}
	return r, nil
}

// collector is one submitter's completions. Each submitter owns its
// own, merged after the run, so the measured path shares nothing.
type collector struct {
	latencies []time.Duration
	errors    int
}

// mode runs n closed-loop submitters for the run length and folds what
// they collected into the mode's result and the cluster's ledger.
func (p serveParams) mode(c *harness.Cluster, name string, n int, submitter func(col *collector, stop func() bool)) modeResult {
	start := time.Now()
	deadline := start.Add(p.Duration)
	stop := func() bool { return time.Now().After(deadline) }
	cols := make([]*collector, n)
	var wg sync.WaitGroup
	for i := range cols {
		cols[i] = &collector{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			submitter(cols[i], stop)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var t harness.Tally
	var all []time.Duration
	for _, col := range cols {
		all = append(all, col.latencies...)
		t.Failed += col.errors
	}
	t.OK = len(all)
	t.Sent = t.OK + t.Failed
	t.SetLatencies(all, nil)
	c.Account(t)
	m := modeResult{Mode: name, Completed: t.OK, Errors: t.Failed, JobsPerSec: float64(t.OK) / elapsed.Seconds(),
		P50Ms: t.P50Ms, P99Ms: t.P99Ms, MaxMs: t.MaxMs}
	fmt.Printf("  %-7s %8d jobs  %9.0f jobs/s  p50 %7.3fms  p99 %7.3fms  max %7.1fms  %d errors\n",
		m.Mode, m.Completed, m.JobsPerSec, m.P50Ms, m.P99Ms, m.MaxMs, m.Errors)
	return m
}

// submitUnary: one POST /v1/jobs per iteration over shared keep-alive
// connections.
func submitUnary(cl *client.Client, col *collector, stop func() bool) {
	body := []byte(`{"workload":"noop"}`)
	for !stop() {
		t0 := time.Now()
		res, err := cl.SubmitJob(context.Background(), body)
		if err != nil || res.StatusCode != http.StatusOK {
			col.errors++
			continue
		}
		col.latencies = append(col.latencies, time.Since(t0))
	}
}

// submitBatch: batch jobs per request. An item's latency is its batch's
// round trip, which is what a batching client observes.
func submitBatch(cl *client.Client, batch int, col *collector, stop func() bool) {
	jobs := make([]client.BatchJob, batch)
	for i := range jobs {
		jobs[i] = client.BatchJob{Workload: "noop"}
	}
	for !stop() {
		t0 := time.Now()
		res, err := cl.SubmitBatch(context.Background(), jobs)
		if err != nil {
			col.errors++
			continue
		}
		rtt := time.Since(t0)
		for i := range res {
			if res[i].Code == http.StatusOK {
				col.latencies = append(col.latencies, rtt)
			} else {
				col.errors++
			}
		}
	}
}

// submitStream: one connection keeping window submissions outstanding —
// submit the window, then one new submission per result; after the
// deadline, drain what is still out.
func submitStream(cl *client.Client, window int, col *collector, stop func() bool) {
	sc, err := cl.DialStream(context.Background())
	if err != nil {
		col.errors++
		return
	}
	defer sc.Close()
	noop, ok := sc.WorkloadID("noop")
	if !ok {
		col.errors++
		return
	}
	sent := make(map[uint64]time.Time, window)
	var seq uint64
	submit := func() bool {
		seq++
		sent[seq] = time.Now()
		if err := sc.Submit(&wire.Submit{ID: seq, Workload: noop}); err != nil {
			col.errors++
			return false
		}
		return true
	}
	for i := 0; i < window; i++ {
		if !submit() {
			return
		}
	}
	if err := sc.Flush(); err != nil {
		col.errors++
		return
	}
	for res := range sc.Results() {
		t0, ok := sent[res.ID]
		if !ok {
			col.errors++
			continue
		}
		delete(sent, res.ID)
		if res.Outcome == wire.OutcomeOK {
			col.latencies = append(col.latencies, time.Since(t0))
		} else {
			col.errors++
		}
		if stop() {
			if len(sent) == 0 {
				return
			}
			continue
		}
		if !submit() {
			return
		}
		if err := sc.Flush(); err != nil {
			col.errors++
			return
		}
	}
	col.errors += len(sent)
}
