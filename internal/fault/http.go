package fault

import (
	"errors"
	"io"
	"net/http"
	"strings"
	"time"
)

// ErrReset is the error injected resets surface on the client side, so
// tests can tell an induced reset from a genuine transport failure.
var ErrReset = errors.New("fault: injected connection reset")

// sleepCtx sleeps for d or until done fires, reporting whether the full
// sleep completed.
func sleepCtx(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// Middleware wraps a server handler with injected faults on the
// job-serving paths (/v1/jobs...). Control-plane endpoints — readyz,
// healthz, stats, workloads, metrics — pass through untouched: that is
// the gray-failure model, a node that answers every probe crisply while
// its data path rots. Injected latency is applied BEFORE the inner
// handler runs, so a caller that gives up during the stall never admits
// a job at all.
func Middleware(next http.Handler, in *Injector) http.Handler {
	if in == nil || !in.spec.Net() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			next.ServeHTTP(w, r)
			return
		}
		a := in.Next("serve")
		switch {
		case a.Reset:
			// http.Server recovers this panic and slams the connection
			// shut without a response — the closest in-process stand-in
			// for a TCP RST.
			panic(http.ErrAbortHandler)
		case a.Blackhole:
			<-r.Context().Done()
			return
		}
		if a.Latency > 0 && !sleepCtx(a.Latency, r.Context().Done()) {
			return // caller gave up mid-stall; nothing was admitted
		}
		if a.Drip {
			w = &dripWriter{w: w, chunk: in.spec.DripChunk, delay: in.spec.DripDelay, done: r.Context().Done()}
		}
		next.ServeHTTP(w, r)
	})
}

// dripWriter trickles response bytes chunk by chunk with a flush and a
// pause between chunks, emulating a NIC or peer that drains painfully
// slowly. The first chunk goes out immediately so headers and status
// are not delayed beyond the (separate) latency fault.
type dripWriter struct {
	w     http.ResponseWriter
	chunk int
	delay time.Duration
	done  <-chan struct{}
	wrote bool
}

func (d *dripWriter) Header() http.Header { return d.w.Header() }

func (d *dripWriter) WriteHeader(code int) { d.w.WriteHeader(code) }

func (d *dripWriter) Write(p []byte) (int, error) {
	f, _ := d.w.(http.Flusher)
	n := 0
	for len(p) > 0 {
		if d.wrote && !sleepCtx(d.delay, d.done) {
			return n, errors.New("fault: drip aborted")
		}
		c := d.chunk
		if c <= 0 || c > len(p) {
			c = len(p)
		}
		m, err := d.w.Write(p[:c])
		n += m
		if err != nil {
			return n, err
		}
		if f != nil {
			f.Flush()
		}
		d.wrote = true
		p = p[c:]
	}
	return n, nil
}

// Transport is an http.RoundTripper wrapper injecting faults on the
// client side of the wire, keyed so each backend draws its own
// deterministic schedule. A gate wraps each backend's transport via
// gate.Config.WrapTransport.
type Transport struct {
	base http.RoundTripper
	in   *Injector
	key  string
}

// NewTransport wraps base (nil = http.DefaultTransport) with faults
// from in under the given key.
func NewTransport(base http.RoundTripper, in *Injector, key string) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, in: in, key: key}
}

func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	a := t.in.Next(t.key)
	switch {
	case a.Reset:
		return nil, ErrReset
	case a.Blackhole:
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if a.Latency > 0 && !sleepCtx(a.Latency, req.Context().Done()) {
		return nil, req.Context().Err()
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && a.Drip {
		resp.Body = &dripReader{rc: resp.Body, chunk: t.in.spec.DripChunk, delay: t.in.spec.DripDelay, done: req.Context().Done()}
	}
	return resp, err
}

// dripReader throttles body reads to chunk bytes per delay.
type dripReader struct {
	rc    io.ReadCloser
	chunk int
	delay time.Duration
	done  <-chan struct{}
	read  bool
}

func (d *dripReader) Read(p []byte) (int, error) {
	if d.read && !sleepCtx(d.delay, d.done) {
		return 0, errors.New("fault: drip aborted")
	}
	d.read = true
	if d.chunk > 0 && len(p) > d.chunk {
		p = p[:d.chunk]
	}
	return d.rc.Read(p)
}

func (d *dripReader) Close() error { return d.rc.Close() }
