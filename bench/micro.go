package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"wats/internal/amc"
	"wats/internal/history"
	"wats/internal/kernels"
	"wats/internal/runtime"
	"wats/internal/server"
	"wats/internal/task"
	"wats/internal/wire"
)

// Micro-measurements are direct timed calls into one layer, a tenth of
// the run length each. Each runs in the traced run of the workload whose
// end-to-end numbers the layer should move.

func mustArch(name string, fast, slow int) *amc.Arch {
	return amc.MustNew(name, amc.CGroup{Freq: 2.0, N: fast}, amc.CGroup{Freq: 0.8, N: slow})
}

// putMicro times op and reports ns per call as nsName and, when
// allocsName is set, allocations per call under it.
func (e *env) putMicro(nsName, allocsName string, op func()) (nsPerOp float64) {
	ns, allocs, calls := micro(e.win, op)
	e.ms.put(nsName, ns, "ns", calls)
	if allocsName != "" {
		e.ms.put(allocsName, allocs, "1", calls)
	}
	return ns
}

// microHostRef hashes 1 MiB with the standard library alone, so the time
// it takes moves when the host does and never when this repository does:
// on a shared machine it is the first number to read next to any other.
func (e *env) microHostRef() {
	buf := make([]byte, 1<<20)
	e.putMicro("proc.host_ref_ns", "", func() { _ = sha256.Sum256(buf) })
}

// noted keeps the first error a micro-measurement's calls hit; it is
// reported as a failed check once the timing is over.
type noted struct{ err error }

func (n *noted) note(err error) {
	if err != nil && n.err == nil {
		n.err = err
	}
}

// benchRuntime is the noop workloads' runtime without a server on top.
func benchRuntime() (*runtime.Runtime, error) {
	return runtime.New(runtime.Config{
		Arch: amc.MustNew("bench", amc.CGroup{Freq: 2.0, N: 4}), Policy: "WATS", Seed: 7,
		LockFree: true, DisableSpeedEmulation: true, MaxQueuedTasks: 1 << 14,
	})
}

// microServer calls the server's handler on a recorder, with no socket:
// what remains of serve_noop_unary when the network and the client are
// taken away.
func (e *env) microServer() {
	rt, err := benchRuntime()
	if err != nil {
		e.check(false, "micro server: %v", err)
		return
	}
	defer rt.Shutdown()
	srv, err := server.New(server.Config{Runtime: rt, MaxInflight: 1 << 13})
	if err != nil {
		e.check(false, "micro server: %v", err)
		return
	}
	h := srv.Handler()
	var bad noted
	post := func(path string, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			bad.note(fmt.Errorf("%s answered %d: %s", path, w.Code, w.Body))
		}
	}
	unary := []byte(`{"workload":"noop"}`)
	e.putMicro("server.unary_direct_ns", "server.unary_direct_allocs", func() { post("/v1/jobs", unary) })

	batch := []byte(`{"jobs":[` + strings.TrimSuffix(strings.Repeat(`{"workload":"noop"},`, 16), ",") + `]}`)
	ns, allocs, calls := micro(e.win, func() { post("/v1/jobs:batch", batch) })
	e.ms.put("server.batch16_direct_ns_per_job", ns/16, "ns", calls*16)
	e.ms.put("server.batch16_direct_allocs", allocs, "1", calls)
	e.check(bad.err == nil, "micro server: %v", bad.err)
}

// microWire encodes and parses one SUBMIT and one RESULT frame.
func (e *env) microWire() {
	var buf []byte
	var bad noted
	sub := wire.Submit{ID: 1, Workload: 1, Seed: 42}
	var subOut wire.Submit
	ns1, a1, calls := micro(e.win, func() {
		sub.ID++
		buf = wire.AppendSubmit(buf[:0], &sub)
		bad.note(wire.ParseSubmit(buf[5:], &subOut))
	})
	e.ms.put("wire.submit_roundtrip_ns", ns1, "ns", calls)
	res := wire.Result{ID: 1, QueueWaitUS: 3, ExecUS: 1}
	var resOut wire.Result
	ns2, a2, calls := micro(e.win, func() {
		res.ID++
		buf = wire.AppendResult(buf[:0], &res)
		bad.note(wire.ParseResult(buf[5:], &resOut))
	})
	e.ms.put("wire.result_roundtrip_ns", ns2, "ns", calls)
	e.ms.put("wire.allocs", a1+a2, "1", calls)
	e.check(bad.err == nil && subOut == sub && resOut == res, "micro wire: round trip changed a frame (%v)", bad.err)
}

// microSpawnWait spawns empty tasks from outside the runtime and waits
// for them: the runtime's share of a noop job.
func (e *env) microSpawnWait() {
	rt, err := benchRuntime()
	if err != nil {
		e.check(false, "micro runtime: %v", err)
		return
	}
	defer rt.Shutdown()
	const batch = 1000
	var bad noted
	ns, _, calls := micro(e.win, func() {
		for i := 0; i < batch; i++ {
			bad.note(rt.Spawn("noop", func(*runtime.Ctx) {}))
		}
		rt.Wait()
	})
	e.ms.put("runtime.spawn_wait_ns_per_task", ns/batch, "ns", calls*batch)
	e.check(bad.err == nil, "micro runtime: %v", bad.err)
}

// microKernels times the three child kinds of a mix job at its 4 KiB
// size, and a 16-wide fork-join of empty tasks on the workload's
// machine. mix16_cpu sums a job's 4 bzip2 + 4 lzw + 8 sha1/md5 children;
// its share of the job's measured CPU is kernels.share_of_job.
func (e *env) microKernels() {
	const size = 4096
	in := kernels.NewInput(e.seed + 1)
	data, text := in.Bytes(size), in.Text(size)
	var bad noted
	bzip2 := e.putMicro("kernels.bzip2_4k_ns", "", func() {
		enc, pr := kernels.Bzip2Like(text)
		_, err := kernels.Bzip2LikeDecode(enc, pr)
		bad.note(err)
	})
	lzw := e.putMicro("kernels.lzw_4k_ns", "", func() {
		_, err := kernels.LZWDecode(kernels.LZWEncode(data))
		bad.note(err)
	})
	digest := e.putMicro("kernels.sha1_md5_4k_ns", "", func() {
		_ = kernels.SHA1Sum(data)
		_ = kernels.MD5Sum(data)
	})
	mix := 4*bzip2 + 4*lzw + 8*digest
	e.ms.put("kernels.mix16_cpu_ns", mix, "ns", 16)
	if ref := e.ms["cpu_us_per_job"].Value; ref > 0 {
		e.ms.put("kernels.share_of_job", mix/1e3/ref, "ratio", 16)
	}

	rt, err := runtime.New(runtime.Config{Arch: mustArch("watsd", 2, 2), Policy: "WATS", Seed: 7,
		LockFree: true, DisableSpeedEmulation: true})
	if err != nil {
		e.check(false, "micro runtime: %v", err)
		return
	}
	defer rt.Shutdown()
	ns, _, calls := micro(e.win, func() {
		bad.note(rt.Spawn("mix", func(ctx *runtime.Ctx) {
			g := ctx.Group()
			for i := 0; i < 16; i++ {
				g.Spawn(ctx, "sha1", func(*runtime.Ctx) {})
			}
			g.Wait(ctx)
		}))
		rt.Wait()
	})
	e.ms.put("runtime.forkjoin16_ns_per_task", ns/16, "ns", calls*16)
	e.check(bad.err == nil, "micro kernels: %v", bad.err)
}

// microHistory times Algorithm 1 on sixteen classes on AMC2, a full
// reorganization after one new observation, and one observation.
func (e *env) microHistory() {
	weights := make([]float64, 16)
	reg := task.NewRegistry()
	names := make([]string, len(weights))
	for i := range weights {
		weights[i] = float64(100 * (len(weights) - i))
		names[i] = fmt.Sprintf("class%02d", i)
		reg.Observe(names[i], weights[i])
	}
	cuts := 0
	e.putMicro("history.partition_ns", "", func() { cuts += len(history.Partition(weights, amc.AMC2)) })
	alloc := history.NewAllocator(reg, amc.AMC2)
	i, skipped := 0, 0
	e.putMicro("history.reorganize_ns", "", func() {
		i++
		reg.Observe(names[i%len(names)], weights[i%len(names)])
		if !alloc.Reorganize() {
			skipped++
		}
	})
	e.putMicro("task.observe_ns", "", func() {
		i++
		reg.Observe(names[i%len(names)], weights[i%len(names)])
	})
	e.check(cuts > 0 && skipped == 0, "micro history: %d cuts, %d reorganizations skipped after a new observation", cuts, skipped)
}
