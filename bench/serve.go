package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"wats/internal/client"
	"wats/internal/gate"
	"wats/internal/wire"
)

// jobKind is the job a closed-loop workload submits: the body up to the
// tag, and what a correct response contains.
type jobKind struct {
	prefix string
	want   string
}

var (
	noopJob = jobKind{`{"workload":"noop","params":{"seed":`, `"status":"completed"`}
	mixJob  = jobKind{`{"workload":"mix","params":{"n":16,"size":4096,"seed":`, `"children":16`}
)

// taggedBody returns prefix followed by a blank tag for putTag to fill.
func taggedBody(prefix string) []byte {
	return append([]byte(prefix), "0000000000}}"...)
}

// tally is what every load generator counts; attempted = ok + failed.
type tally struct {
	ok, failed int64
}

func (t *tally) add(o tally) { t.ok += o.ok; t.failed += o.failed }

func (t tally) minus(o tally) tally { return tally{t.ok - o.ok, t.failed - o.failed} }

// phaseResult is what one phase of a closed loop measured.
type phaseResult struct {
	ms      metricSet
	samples []sample
	tally
}

// closedLoop drives one client against cl for the given number of
// windows: it sends its next job when the previous one has come back, so
// one connection carries the load and one job is in the system at a
// time. nextID is the first unused job id.
func (e *env) closedLoop(cl *client.Client, windows int, traced bool, kind jobKind, nextID *int64) phaseResult {
	e.rec.setOn(traced)
	defer e.rec.setOn(false)
	start := time.Now()
	end := start.Add(time.Duration(windows) * e.win)
	var oks atomic.Int64
	boundsCh := make(chan []boundary, 1)
	go func() {
		boundsCh <- watchWindows(start, e.win, windows, oks.Load)
	}()

	out := phaseResult{ms: metricSet{}, samples: make([]sample, 0, 1<<16)}
	body, want := taggedBody(kind.prefix), []byte(kind.want)
	ctx := context.Background()
	for ; time.Now().Before(end); *nextID++ {
		id := *nextID
		putTag(body, e.tag0+id)
		t0 := e.now()
		res, err := cl.SubmitJob(ctx, body)
		t1 := e.now()
		if err != nil || res.StatusCode != http.StatusOK || !bytes.Contains(res.Body, want) {
			out.failed++
			continue
		}
		out.ok++
		oks.Add(1)
		out.samples = append(out.samples, sample{start: t0, lat: t1 - t0})
		if traced {
			e.rec.add(spSubmit, noNode, id, t0, t1)
			e.rec.addServerTimes(id, msField(res.Body, `"queue_wait_ms":`), msField(res.Body, `"exec_ms":`))
		}
	}
	windowMetrics(out.ms, out.samples, <-boundsCh, int64(start.Sub(e.epoch)), e.win)
	return out
}

// msField reads the number after key in a response body, which the
// server gives in milliseconds, as nanoseconds; 0 when the field is
// absent, as exec_ms is for a job too short to measure.
func msField(body []byte, key string) int64 {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0
	}
	rest := body[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0
	}
	v, err := strconv.ParseFloat(string(rest[:j]), 64)
	if err != nil {
		return 0
	}
	return int64(v * 1e6)
}

// refWindows is how many of a traced run's ten windows go to each
// untraced reference phase. The reference runs through the same wrappers
// with recording off, so tracing overhead is a ratio within one run.
const refWindows = 3

// runClosed is the body of the three closed-loop HTTP workloads. An
// untraced run is warm-up, then ten measured windows. A traced run
// spends the ten windows on a reference phase and a traced phase; with
// viaGate it adds a reference phase sent straight to the first backend,
// which is what the gate hop is measured against.
func (e *env) runClosed(spec stackSpec, kind jobKind, viaGate bool) error {
	st, err := e.setUp(spec)
	if err != nil {
		return err
	}
	defer st.close()
	var nextID int64

	warm := e.closedLoop(st.cl, warmupWindows, false, kind, &nextID)
	all := warm.tally
	rt0 := runtimeTotalsOf(st)
	e.startProc(st)
	conserved := func() {
		// Every job any phase saw complete, plus the set-up probe.
		e.check(all.ok+1 == st.completed(), "conservation: clients saw %d jobs OK, servers completed %d", all.ok+1, st.completed())
	}

	if !e.traced {
		r := e.closedLoop(st.cl, measuredWindows, false, kind, &nextID)
		all.add(r.tally)
		for name, m := range r.ms {
			e.ms[name] = m
		}
		conserved()
		e.finish(r.tally)
		return nil
	}

	tracedWindows := measuredWindows - refWindows
	var direct phaseResult
	if viaGate {
		tracedWindows -= refWindows
		dcl, dtr, err := newClient(st.nodes[0].web.url, e.rec)
		if err != nil {
			return err
		}
		defer dtr.CloseIdleConnections()
		direct = e.closedLoop(dcl, refWindows, false, kind, &nextID)
		all.add(direct.tally)
	}
	ref := e.closedLoop(st.cl, refWindows, false, kind, &nextID)
	tr := e.closedLoop(st.cl, tracedWindows, true, kind, &nextID)
	all.add(ref.tally)
	all.add(tr.tally)
	conserved()

	e.rec.layerMetrics(e.ms)
	e.putOverhead(ref.ms, tr.ms)
	if viaGate {
		diff := func(name string) float64 { return ref.ms[name].Value - direct.ms[name].Value }
		e.ms.put("gate.hop_overhead_us", diff("lat_p50_ms")*1e3, "us", int(ref.ok))
		e.ms.put("gate.hop_cpu_us", diff("cpu_us_per_job"), "us", int(ref.ok))
		e.ms.put("gate.allocs_per_job", diff("allocs_per_job"), "1", int(ref.ok))
		e.gateMetrics(st.gate)
	}
	e.clientMetrics(st.cl, tr.samples)
	e.serverMetrics(st, rt0)
	e.finish(all.minus(warm.tally))
	return nil
}

// refPhase is how long a run whose load never pauses spends on the
// untraced reference before it switches recording on: nothing unless the
// run is traced.
func (e *env) refPhase() time.Duration {
	if !e.traced {
		return 0
	}
	return refWindows * e.win
}

// putOverhead reports, for a traced run, the two per-layer metrics that
// an untraced run takes from its windows — CPU per job and the latency
// tail — from the untraced reference phase, and what tracing costs: CPU
// per job in the traced phase over the reference phase of the same run,
// minus one.
func (e *env) putOverhead(ref, traced metricSet) {
	r, ok := ref["cpu_us_per_job"]
	if !ok {
		return
	}
	e.ms["cpu_us_per_job"], e.ms["lat_p95_ms"] = r, ref["lat_p95_ms"]
	if m := traced["cpu_us_per_job"]; r.Value > 0 && m.N > 0 {
		e.ms.put("trace.overhead_share", m.Value/r.Value-1, "ratio", m.N)
	}
}

// splitTraced is for the workloads whose load keeps running while a
// traced run switches from its reference windows to its traced ones: it
// folds the two stretches of the measured phase separately, reports the
// overhead, and returns the samples that completed in the traced stretch.
func (e *env) splitTraced(samples []sample, bounds []boundary, measuredStart int64) (traced []sample) {
	tracedStart := measuredStart + refWindows*int64(e.win)
	refMs, trMs := metricSet{}, metricSet{}
	windowMetrics(refMs, samples, bounds[:refWindows+1], measuredStart, e.win)
	windowMetrics(trMs, samples, bounds[refWindows:], tracedStart, e.win)
	e.putOverhead(refMs, trMs)
	for _, s := range samples {
		if s.start+s.lat >= tracedStart {
			traced = append(traced, s)
		}
	}
	return traced
}

func runServeNoopUnary(e *env) error {
	if err := e.runClosed(stackSpec{nodes: []nodeSpec{benchNode("bench")}}, noopJob, false); err != nil {
		return err
	}
	if e.traced {
		e.microServer()
	}
	return nil
}

func runGateNoopUnary(e *env) error {
	// Zero-value gate.Config: the weighted default policy, defences off.
	// The three backends are identical, so the only difference from
	// serve_noop_unary is the hop itself.
	spec := stackSpec{nodes: []nodeSpec{benchNode("a"), benchNode("b"), benchNode("c")}, gate: &gate.Config{}}
	return e.runClosed(spec, noopJob, true)
}

func runKernelMixAMC(e *env) error {
	// The watsd defaults: the paper-style 2 fast + 2 slow machine with
	// speed emulation on and at most 64 jobs in flight.
	spec := stackSpec{nodes: []nodeSpec{{name: "watsd", arch: mustArch("watsd", 2, 2), emulate: true, maxInflight: 64}}}
	if err := e.runClosed(spec, mixJob, false); err != nil {
		return err
	}
	if e.traced {
		e.microKernels()
	}
	return nil
}

// streamWindow is how many submissions the stream client keeps
// outstanding.
const streamWindow = 64

// runServeNoopStream drives one wats-stream/1 connection: submit the
// window, then one new submission per result. Only the client's calls
// are reachable from outside on this path, so a traced run records the
// root span (submit to result) and the Submit+Flush call under it; the
// server's queue wait and execution time come from the RESULT frame.
func runServeNoopStream(e *env) error {
	st, err := e.setUp(stackSpec{nodes: []nodeSpec{benchNode("bench")}})
	if err != nil {
		return err
	}
	defer st.close()
	sc, err := st.cl.DialStream(context.Background())
	if err != nil {
		return err
	}
	defer func() {
		sc.Close()
		for range sc.Results() {
			// until the client's read loop has ended
		}
	}()
	noopID, ok := sc.WorkloadID("noop")
	if !ok {
		return fmt.Errorf("stream HELLO has no noop workload")
	}

	// One goroutine submits and reads, so phases switch on the clock:
	// warm-up, then (traced runs) the reference windows, then the rest.
	warmEnd := time.Now().Add(time.Duration(warmupWindows) * e.win)
	refEnd := warmEnd.Add(e.refPhase())
	end := warmEnd.Add(time.Duration(measuredWindows) * e.win)
	boundsCh := make(chan []boundary, 1)
	var oks atomic.Int64
	go func() {
		boundsCh <- watchWindows(warmEnd, e.win, measuredWindows, oks.Load)
	}()

	var all, warm tally
	var samples []sample
	var rt0 runtimeTotals
	sent := make(map[uint64]int64, 2*streamWindow)
	var seq uint64
	submit := func() error {
		seq++
		t0 := e.now()
		sent[seq] = t0
		if err := sc.Submit(&wire.Submit{ID: seq, Workload: noopID, Seed: uint64(e.tag0) + seq}); err != nil {
			return err
		}
		if err := sc.Flush(); err != nil {
			return err
		}
		if e.rec.isOn() {
			e.rec.add(spStreamSubmit, noNode, int64(seq), t0, e.now())
		}
		return nil
	}
	for i := 0; i < streamWindow; i++ {
		if err := submit(); err != nil {
			return err
		}
	}
	warming := true
	for res := range sc.Results() {
		now := time.Now()
		if warming && now.After(warmEnd) {
			warming, warm, rt0 = false, all, runtimeTotalsOf(st)
			e.startProc(st)
		}
		e.rec.setOn(e.traced && now.After(refEnd) && now.Before(end))
		t0, known := sent[res.ID]
		delete(sent, res.ID)
		t1 := e.now()
		if !known || res.Outcome != wire.OutcomeOK {
			all.failed++
		} else {
			all.ok++
			if !warming {
				oks.Add(1)
				samples = append(samples, sample{start: t0, lat: t1 - t0})
			}
			if e.rec.isOn() {
				e.rec.add(spSubmit, noNode, int64(res.ID), t0, t1)
				e.rec.addServerTimes(int64(res.ID), res.QueueWaitUS*1e3, res.ExecUS*1e3)
			}
		}
		if now.Before(end) {
			if err := submit(); err != nil {
				return err
			}
		} else if len(sent) == 0 {
			break
		}
	}
	e.rec.setOn(false)
	bounds := <-boundsCh
	if len(sent) > 0 {
		return fmt.Errorf("stream closed with %d jobs outstanding: %v", len(sent), sc.Err())
	}
	e.check(all.ok+1 == st.completed(), "conservation: client saw %d jobs OK, server completed %d", all.ok+1, st.completed())

	measured := all.minus(warm)
	warmEndNs := int64(warmEnd.Sub(e.epoch))
	if !e.traced {
		windowMetrics(e.ms, samples, bounds, warmEndNs, e.win)
		e.finish(measured)
		return nil
	}
	traced := e.splitTraced(samples, bounds, warmEndNs)
	e.rec.layerMetrics(e.ms)
	e.clientMetrics(st.cl, traced)
	e.serverMetrics(st, rt0)
	e.finish(measured)
	e.microWire()
	e.microSpawnWait()
	return nil
}
