package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"wats/internal/amc"
	"wats/internal/client"
	"wats/internal/gate"
	"wats/internal/kernels"
	"wats/internal/runtime"
	"wats/internal/server"
	"wats/internal/stats"
)

// nodeSpec is one in-process watsd: its machine shape and how it serves.
type nodeSpec struct {
	name        string
	arch        *amc.Arch
	emulate     bool // speed-emulation stalls on (the watsd default)
	maxQueued   int
	maxInflight int
	// slowdown > 0 adds gatedemo's two sleep workloads: "heavy" sleeps
	// heavySleep x slowdown (CPU-bound work scales with the machine),
	// "light" sleeps lightSleep everywhere.
	slowdown float64
}

const (
	heavySleep = 16 * time.Millisecond
	lightSleep = 2 * time.Millisecond
)

// benchNode is servebench's node: four fast cores, no emulation stalls,
// so the noop workloads measure the serving machinery alone.
func benchNode(name string) nodeSpec {
	return nodeSpec{name: name, arch: amc.MustNew(name, amc.CGroup{Freq: 2.0, N: 4}),
		maxQueued: 1 << 14, maxInflight: 1 << 13}
}

// node is one live backend behind a real loopback listener.
type node struct {
	spec nodeSpec
	rt   *runtime.Runtime
	srv  *server.Server
	web  *webServer
}

// webServer is an http.Server whose close waits for Serve to return.
type webServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*webServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &webServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		_ = w.hs.Serve(ln) // always ErrServerClosed after close
		close(w.done)
	}()
	return w, nil
}

func (w *webServer) close() {
	_ = w.hs.Close() // drops the listener and every connection; nothing to report
	<-w.done
}

func startNode(spec nodeSpec, idx int, rec *recorder) (*node, error) {
	rt, err := runtime.New(runtime.Config{
		Arch:                  spec.arch,
		Policy:                "WATS",
		Seed:                  7,
		LockFree:              true,
		DisableSpeedEmulation: !spec.emulate,
		MaxQueuedTasks:        spec.maxQueued,
	})
	if err != nil {
		return nil, err
	}
	workloads := server.Builtins()
	if spec.slowdown > 0 {
		heavy := time.Duration(float64(heavySleep) * spec.slowdown)
		workloads["heavy"] = server.Workload{Name: "heavy", Class: "heavy", Desc: "CPU-bound: scales with machine speed",
			Run: func(*runtime.Ctx, server.Params) (any, error) { time.Sleep(heavy); return nil, nil }}
		workloads["light"] = server.Workload{Name: "light", Class: "light", Desc: "speed-insensitive",
			Run: func(*runtime.Ctx, server.Params) (any, error) { time.Sleep(lightSleep); return nil, nil }}
	}
	srv, err := server.New(server.Config{Runtime: rt, MaxInflight: spec.maxInflight, Workloads: workloads})
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = rec.middleware(spServer, uint8(idx), h)
	}
	web, err := serve(h)
	if err != nil {
		rt.Shutdown()
		return nil, err
	}
	return &node{spec: spec, rt: rt, srv: srv, web: web}, nil
}

func (n *node) close() {
	n.web.close()
	n.rt.Shutdown()
}

// stackSpec is what one workload runs against: nodes, and optionally a
// gate in front of them.
type stackSpec struct {
	nodes []nodeSpec
	gate  *gate.Config // nil = jobs go straight to nodes[0]
}

func (s stackSpec) nodeNames() []string {
	names := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		names[i] = n.name
	}
	return names
}

// stack is a running stackSpec plus the client that drives it.
type stack struct {
	nodes   []*node
	gate    *gate.Gate
	gateWeb *webServer
	tr      *http.Transport
	cl      *client.Client
}

// newClient builds a benchmark client for url with its own transport,
// wrapped for tracing when rec is set.
func newClient(url string, rec *recorder) (*client.Client, *http.Transport, error) {
	tr := client.DefaultTransport()
	var rt http.RoundTripper = tr
	if rec != nil {
		rt = &roundTripper{rec: rec, kind: spRoundTrip, node: noNode, next: tr}
	}
	cl, err := client.New(client.Config{BaseURL: url, MaxRetries: 0, HTTPClient: &http.Client{Transport: rt}})
	return cl, tr, err
}

// bringUp starts every node, the gate if there is one, and a client, and
// returns once a sha1 probe job sent the way the load will go has come
// back with the digest the benchmark computed itself. rec, when set,
// wraps every boundary reachable from outside.
func bringUp(spec stackSpec, seed uint64, rec *recorder) (s *stack, err error) {
	s = &stack{}
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	for i, ns := range spec.nodes {
		n, err := startNode(ns, i, rec)
		if err != nil {
			return s, fmt.Errorf("node %s: %w", ns.name, err)
		}
		s.nodes = append(s.nodes, n)
	}
	url := s.nodes[0].web.url
	if spec.gate != nil {
		cfg := *spec.gate
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		for _, n := range s.nodes {
			cfg.Backends = append(cfg.Backends, gate.BackendConf{Name: n.spec.name, URL: n.web.url})
		}
		if rec != nil {
			names := spec.nodeNames()
			cfg.WrapTransport = func(backend string, rt http.RoundTripper) http.RoundTripper {
				for i, name := range names {
					if name == backend {
						return &roundTripper{rec: rec, kind: spBackend, node: uint8(i), next: rt}
					}
				}
				return rt
			}
		}
		if s.gate, err = gate.New(cfg); err != nil {
			return s, err
		}
		var h http.Handler = s.gate.Handler()
		if rec != nil {
			h = rec.middleware(spGate, noNode, h)
		}
		if s.gateWeb, err = serve(h); err != nil {
			return s, err
		}
		url = s.gateWeb.url
		if err := s.waitAllReady(); err != nil {
			return s, err
		}
	}
	if s.cl, s.tr, err = newClient(url, rec); err != nil {
		return s, err
	}
	return s, probeSHA1(s.cl, seed)
}

// waitAllReady returns once the gate has polled every backend ready, so
// the first measured job already sees the whole cluster.
func (s *stack) waitAllReady() error {
	const limit = 2 * time.Second
	deadline := time.Now().Add(limit)
	for {
		ready := 0
		for _, b := range s.gate.Snapshot() {
			if b.Ready {
				ready++
			}
		}
		if ready == len(s.nodes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate saw %d of %d backends ready after %v", ready, len(s.nodes), limit)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *stack) close() {
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	if s.gateWeb != nil {
		s.gateWeb.close()
	}
	if s.gate != nil {
		s.gate.Close()
	}
	for _, n := range s.nodes {
		n.close()
	}
}

// completed sums the jobs the nodes' own metrics count as completed.
func (s *stack) completed() int64 {
	var n int64
	for _, nd := range s.nodes {
		n += int64(nd.srv.Metrics().Counters().Completed)
	}
	return n
}

// probeSHA1 submits one sha1 job and checks the digest against
// kernels.SHA1Sum over the same generated input.
func probeSHA1(cl *client.Client, seed uint64) error {
	const size = 4096
	body := fmt.Sprintf(`{"workload":"sha1","params":{"size":%d,"seed":%d}}`, size, seed+1)
	res, err := cl.SubmitJob(context.Background(), []byte(body))
	if err != nil {
		return fmt.Errorf("sha1 probe: %w", err)
	}
	want := fmt.Sprintf(`"sha1":"%x"`, kernels.SHA1Sum(kernels.NewInput(seed+1).Bytes(size)))
	if res.StatusCode != http.StatusOK || !bytes.Contains(res.Body, []byte(want)) {
		return fmt.Errorf("sha1 probe: HTTP %d %s, want %s", res.StatusCode, res.Body, want)
	}
	return nil
}

// setUp brings spec up setupRepeats times, timing each bring-up to the
// first verified response, reports the fastest as setup_s and keeps the
// last stack running. A single bring-up takes milliseconds and varies by
// half with what else the host is doing, which only ever adds time; the
// fastest of many is the number that repeats.
func (e *env) setUp(spec stackSpec) (*stack, error) {
	if e.rec != nil {
		e.rec.nodes = spec.nodeNames()
	}
	var secs []float64
	for {
		t0 := time.Now()
		s, err := bringUp(spec, e.seed, e.rec)
		if err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if len(secs) == setupRepeats {
			e.ms.put("setup_s", stats.Min(secs), "s", len(secs))
			return s, nil
		}
		s.close()
	}
}
