// Command watsload is an open-loop load generator for watsd: arrivals
// are fired at their due times however fast the service responds, the
// regime where admission control matters (a closed-loop client would
// self-throttle and hide the collapse). They are harness.Schedule's, the
// process every watsaccept scenario drives: one Poisson stream per -mix
// entry at its weight's share of the rate, merged by time — a Poisson
// process at the full rate with each workload drawn by weight.
//
// Each arrival submits one job through the resilient internal/client
// (per-attempt timeouts, backoff honoring Retry-After, a circuit
// breaker). At the end it prints throughput, shed/expired/panicked rates,
// the p50/p95/p99 of completed-job latencies (shed-then-retried
// completions on a line of their own) and each client's retry/breaker
// counters. Exit status is 1 when nothing completed, 2 on a usage error.
//
// Three submission modes drive the same arrival process (-mode):
// "unary" POSTs one /v1/jobs request per arrival; "batch" coalesces
// arrivals into /v1/jobs:batch requests of up to -batch jobs (one
// admission decision and one response per batch, item-level retries);
// "stream" pipelines every arrival over one persistent wats-stream/1
// connection (see internal/wire) — no per-job request at all.
//
// Usage:
//
//	watsload -addr http://localhost:8080 -rate 100 -duration 5s
//	watsload -addr http://node1:8080 -addr http://node2:8080 -rate 500 -duration 5s
//	watsload -rate 2000 -duration 10s -mix sha1=6,lzw=3,bzip2=1 -deadline-ms 500
//	watsload -rate 2000 -duration 5s -retries 3
//	watsload -profile 50:2s,800:4s,50:2s   # stepped rates for autoscale tests
//	watsload -rate 5000 -duration 5s -mode batch -batch 32
//	watsload -rate 5000 -duration 5s -mode stream -mix noop
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wats/internal/client"
	"wats/internal/harness"
	"wats/internal/rng"
	"wats/internal/wire"
)

// result is one arrival's outcome. The zero value (status 0) is a
// transport error, a breaker reject or a stream that died first.
type result struct {
	status   int // HTTP status, or the stream outcome's equivalent
	panicjb  bool
	retried  bool // client-level: this client retried after 429/503
	rerouted bool // gate-level: watsgate tried more than one backend
	hedged   bool // gate-level: the answer came from a hedged dispatch
	latency  time.Duration
}

// options is the parsed and validated command line.
type options struct {
	addrs    addrList
	mix      string
	mode     string
	batch    int
	deadline int64
	size     int
	seed     uint64
	client   client.Config
	streams  []harness.Stream
	phases   []harness.Phase
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: the report goes to stdout, status and errors
// to stderr, and the return value is the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "watsload: %v\n", err)
		return 2
	}
	s, err := o.drive(stderr)
	if err != nil {
		fmt.Fprintf(stderr, "watsload: %v\n", err)
		return 2
	}
	s.print(stdout)
	if s.completed == 0 {
		fmt.Fprintln(stderr, "watsload: zero completed jobs")
		return 1
	}
	return 0
}

func parseOptions(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("watsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var (
		rate     float64
		duration time.Duration
		profile  string
	)
	fs.Var(&o.addrs, "addr", "watsd base URL; repeat the flag to round-robin arrivals across a cluster (default http://127.0.0.1:8080)")
	fs.Float64Var(&rate, "rate", 100, "mean arrival rate in jobs/sec (Poisson)")
	fs.DurationVar(&duration, "duration", 5*time.Second, "how long to generate arrivals")
	fs.StringVar(&o.mix, "mix", "sha1=6,md5=2,lzw=3,dmc=2,bzip2=1", "weighted workload mix name=weight,...")
	fs.Int64Var(&o.deadline, "deadline-ms", 0, "per-job deadline_ms (0 = none)")
	fs.IntVar(&o.size, "size", 0, "params.size override for every job (0 = workload default)")
	fs.Uint64Var(&o.seed, "seed", 1, "arrival-process and input seed")
	fs.DurationVar(&o.client.RequestTimeout, "timeout", 30*time.Second, "HTTP timeout per attempt")
	fs.IntVar(&o.client.MaxRetries, "retries", 0, "retry budget per job for shed (429) and unavailable (503) responses")
	fs.StringVar(&profile, "profile", "", `stepped-rate profile "rate:dur,rate:dur,..." overriding -rate/-duration (e.g. "50:2s,800:4s,50:2s")`)
	fs.StringVar(&o.mode, "mode", "unary", "submission mode: unary, batch, or stream")
	fs.IntVar(&o.batch, "batch", 16, "batch mode: jobs coalesced per /v1/jobs:batch request")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if o.mode != "unary" && o.mode != "batch" && o.mode != "stream" {
		return nil, fmt.Errorf("bad -mode %q (want unary, batch, or stream)", o.mode)
	}
	o.batch = max(o.batch, 1)
	if len(o.addrs) == 0 {
		o.addrs = addrList{"http://127.0.0.1:8080"}
	}
	o.client.Seed = o.seed
	var weights []float64
	var err error
	if o.streams, weights, err = parseMix(o.mix); err != nil {
		return nil, err
	}
	if profile != "" {
		o.phases, err = parseProfile(profile, weights)
		return o, err
	}
	if rate <= 0 || duration <= 0 {
		return nil, fmt.Errorf("bad -rate %g / -duration %v (both must be > 0)", rate, duration)
	}
	o.phases = []harness.Phase{{Dur: duration, Rates: harness.Split(rate, weights)}}
	return o, nil
}

// drive sends every scheduled arrival at its due time and tallies the
// outcomes once the last one is back.
func (o *options) drive(stderr io.Writer) (*summary, error) {
	// One resilient client per target, each with its own circuit breaker
	// (node health is per-node state); arrivals round-robin across them.
	cls := make([]*client.Client, len(o.addrs))
	for i, a := range o.addrs {
		cfg := o.client
		cfg.BaseURL = a
		cls[i], _ = client.New(cfg) // fails only without a BaseURL
	}
	arrivals := harness.Schedule(o.seed, o.streams, o.phases, 0)
	fmt.Fprintf(stderr, "watsload: %d open-loop arrivals to %s, mode %s, mix %s, deadline_ms %d, retries %d\n",
		len(arrivals), o.addrs.String(), o.mode, o.mix, o.deadline, o.client.MaxRetries)

	// Arrival k owns out[k] and sent[k]. The main loop stamps sent[k]
	// before dispatching k; whoever finishes k writes out[k] before
	// wg.Done, and nothing reads out before wg.Wait.
	out := make([]result, len(arrivals))
	sent := make([]time.Time, len(arrivals))
	var wg sync.WaitGroup
	r := rng.New(o.seed)
	// dispatch submits arrival k; flush pushes anything still coalesced
	// (batch remainder, buffered stream frames) after the last arrival;
	// closeAll tears down mode state after the last result.
	var dispatch func(k int, wl string)
	flush, closeAll := func() {}, func() {}

	switch o.mode {
	case "unary":
		dispatch = func(k int, wl string) {
			body, _ := json.Marshal(map[string]any{
				"workload":    wl,
				"deadline_ms": o.deadline,
				"params":      map[string]any{"seed": r.Uint64()%1000 + 1, "size": o.size},
			})
			cl := cls[k%len(cls)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if res, err := cl.SubmitJob(context.Background(), body); err == nil {
					out[k] = result{
						status:   res.StatusCode,
						panicjb:  res.StatusCode == http.StatusInternalServerError && isPanicBody(res.Body),
						retried:  res.Retried,
						rerouted: res.GateAttempts > 1,
						hedged:   res.GateHedged,
						latency:  time.Since(sent[k]),
					}
				}
			}()
		}
	case "batch":
		var jobs []client.BatchJob
		var ks []int
		var batches int
		flush = func() {
			if len(jobs) == 0 {
				return
			}
			// Whole batches rotate across targets: one admission decision
			// per batch per node, same as a single-target run.
			cl, batch, idx := cls[batches%len(cls)], jobs, ks
			jobs, ks = nil, nil
			batches++
			wg.Add(1)
			go func() {
				defer wg.Done()
				rs, err := cl.SubmitBatch(context.Background(), batch)
				if err != nil {
					return
				}
				for i, k := range idx {
					out[k] = result{
						status:  rs[i].Code,
						panicjb: rs[i].Code == http.StatusInternalServerError && rs[i].Error == "panic",
						retried: rs[i].Attempts > 1,
						latency: time.Since(sent[k]),
					}
				}
			}()
		}
		dispatch = func(k int, wl string) {
			params, _ := json.Marshal(map[string]any{"seed": r.Uint64()%1000 + 1, "size": o.size})
			jobs = append(jobs, client.BatchJob{Workload: wl, Params: params, DeadlineMS: o.deadline})
			ks = append(ks, k)
			if len(jobs) >= o.batch {
				flush()
			}
		}
	case "stream":
		// One persistent wats-stream connection per target; arrivals
		// round-robin across lanes. Each lane tracks its own in-flight
		// set, keyed by request id = arrival index + 1, so one connection
		// dying only fails the jobs that were actually pipelined on it.
		type lane struct {
			sc       *client.StreamClient
			mu       sync.Mutex
			inflight map[uint64]bool
			dead     bool // the connection closed: nothing more is pipelined
			done     chan struct{}
		}
		lanes := make([]*lane, len(cls))
		closeAll = func() {
			for _, ln := range lanes {
				if ln != nil {
					_ = ln.sc.Close()
					<-ln.done
				}
			}
		}
		for i, cl := range cls {
			sc, err := cl.DialStream(context.Background())
			if err != nil {
				closeAll()
				return nil, fmt.Errorf("stream dial %s: %w", o.addrs[i], err)
			}
			ln := &lane{sc: sc, inflight: map[uint64]bool{}, done: make(chan struct{})}
			lanes[i] = ln
			go func() {
				defer close(ln.done)
				for res := range ln.sc.Results() {
					ln.mu.Lock()
					ok := ln.inflight[res.ID]
					delete(ln.inflight, res.ID)
					ln.mu.Unlock()
					if ok {
						k := res.ID - 1
						out[k] = result{status: streamStatus[res.Outcome], panicjb: res.Outcome == wire.OutcomePanicked, latency: time.Since(sent[k])}
						wg.Done()
					}
				}
				// Connection gone: whatever never got a result stays failed.
				ln.mu.Lock()
				ln.dead = true
				for range ln.inflight {
					wg.Done()
				}
				clear(ln.inflight)
				ln.mu.Unlock()
			}()
		}
		dispatch = func(k int, wl string) {
			ln := lanes[k%len(lanes)]
			wid, ok := ln.sc.WorkloadID(wl)
			if !ok {
				out[k] = result{status: http.StatusBadRequest}
				return
			}
			id := uint64(k) + 1
			ln.mu.Lock()
			if ln.dead {
				ln.mu.Unlock()
				return
			}
			ln.inflight[id] = true
			wg.Add(1)
			ln.mu.Unlock()
			_ = ln.sc.Submit(&wire.Submit{ID: id, Workload: wid, DeadlineMS: o.deadline, Size: int64(o.size), Seed: r.Uint64()%1000 + 1})
			_ = ln.sc.Flush()
		}
		flush = func() {
			for _, ln := range lanes {
				_ = ln.sc.Flush()
			}
		}
	}

	start := time.Now()
	for k, a := range arrivals {
		time.Sleep(time.Until(start.Add(a.At)))
		sent[k] = time.Now()
		dispatch(k, a.Class)
	}
	flush()
	elapsed := time.Since(start)
	wg.Wait()
	closeAll()
	return tally(out, elapsed, cls), nil
}

// summary is the end-of-run report: every arrival lands in exactly one
// of completed, shed, expired, panicked and failed.
type summary struct {
	sent, completed, shed, expired, panicked, failed int
	rerouted, hedged                                 int
	elapsed                                          time.Duration
	lat, retriedLat                                  []time.Duration
	clients                                          []client.Stats // one per -addr
}

func tally(out []result, elapsed time.Duration, cls []*client.Client) *summary {
	s := &summary{sent: len(out), elapsed: elapsed}
	for _, res := range out {
		if res.rerouted {
			s.rerouted++
		}
		if res.hedged {
			s.hedged++
		}
		switch {
		case res.status == http.StatusOK:
			s.completed++
			s.lat = append(s.lat, res.latency)
			if res.retried {
				s.retriedLat = append(s.retriedLat, res.latency)
			}
		case res.status == http.StatusTooManyRequests:
			s.shed++
		case res.status == http.StatusGatewayTimeout:
			s.expired++
		case res.panicjb:
			s.panicked++
		default:
			s.failed++
		}
	}
	slices.Sort(s.lat)
	slices.Sort(s.retriedLat)
	for _, cl := range cls {
		s.clients = append(s.clients, cl.Stats())
	}
	return s
}

func (s *summary) print(w io.Writer) {
	sec := s.elapsed.Seconds()
	fmt.Fprintf(w, "\nsent %d in %v (offered %.0f/s)\n", s.sent, s.elapsed.Round(time.Millisecond), float64(s.sent)/sec)
	fmt.Fprintf(w, "  completed %6d  (%.0f/s goodput)\n", s.completed, float64(s.completed)/sec)
	fmt.Fprintf(w, "  shed 429  %6d  (%.1f%%)\n", s.shed, pct(s.shed, s.sent))
	fmt.Fprintf(w, "  expired   %6d  (%.1f%%)\n", s.expired, pct(s.expired, s.sent))
	fmt.Fprintf(w, "  panicked  %6d  (%.1f%%)\n", s.panicked, pct(s.panicked, s.sent))
	fmt.Fprintf(w, "  failed    %6d\n", s.failed)
	q := harness.QuantileMs
	if len(s.lat) > 0 {
		fmt.Fprintf(w, "  latency   p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
			q(s.lat, 0.50), q(s.lat, 0.95), q(s.lat, 0.99), q(s.lat, 1))
	}
	if r := s.retriedLat; len(r) > 0 {
		fmt.Fprintf(w, "  retried   p50 %.3fms  p95 %.3fms  p99 %.3fms  (%d shed-then-retried completions)\n",
			q(r, 0.50), q(r, 0.95), q(r, 0.99), len(r))
	}
	for _, st := range s.clients {
		fmt.Fprintf(w, "  client    %d attempts / %d requests, %d retries, %d retry-after honored, %d breaker opens, %d breaker rejects\n",
			st.Attempts, st.Requests, st.Retries, st.RetryAfterHonored, st.BreakerOpens, st.BreakerRejects)
	}
	// Gate-side recovery is invisible to the client's own retry counters:
	// watsgate reports it per response via X-Watsgate-* headers, so a run
	// against a gate separates "the gate saved this job" from "this
	// client retried it".
	if s.rerouted > 0 || s.hedged > 0 {
		fmt.Fprintf(w, "  gate      %d re-routed across backends, %d answered by a hedge (recovered at the gate, not by client retries)\n",
			s.rerouted, s.hedged)
	}
}

// streamStatus maps a wire outcome to its HTTP-equivalent status so the
// stream mode shares the unary accounting switch. A failed or unknown
// outcome reads 0, which counts as failed.
var streamStatus = [256]int{
	wire.OutcomeOK:       http.StatusOK,
	wire.OutcomeExpired:  http.StatusGatewayTimeout,
	wire.OutcomePanicked: http.StatusInternalServerError,
	wire.OutcomeShed:     http.StatusTooManyRequests,
	wire.OutcomeDraining: http.StatusServiceUnavailable,
	wire.OutcomeBadReq:   http.StatusBadRequest,
}

// isPanicBody reports whether a 500 body is the structured panic outcome
// ({"error":"panic",...}) rather than an ordinary workload failure.
func isPanicBody(body []byte) bool {
	var v struct {
		Error string `json:"error"`
	}
	return json.Unmarshal(body, &v) == nil && v.Error == "panic"
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// addrList collects repeated -addr flags.
type addrList []string

func (a *addrList) String() string { return strings.Join(*a, ",") }

func (a *addrList) Set(v string) error {
	v = strings.TrimSpace(v)
	if v == "" {
		return fmt.Errorf("empty -addr")
	}
	*a = append(*a, v)
	return nil
}

// parseProfile parses the -profile syntax "rate:dur,rate:dur,...", e.g.
// "50:2s,800:4s,50:2s": 2 s at 50 jobs/s, 4 s at 800, 2 s at 50, each
// step's rate split across the mix by weight.
func parseProfile(s string, weights []float64) ([]harness.Phase, error) {
	var phases []harness.Phase
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rstr, dstr, found := strings.Cut(part, ":")
		if !found {
			return nil, fmt.Errorf("bad -profile step %q (want rate:dur)", part)
		}
		rate, err := strconv.ParseFloat(rstr, 64)
		if err != nil || rate <= 0 {
			return nil, fmt.Errorf("bad rate in -profile step %q", part)
		}
		dur, err := time.ParseDuration(dstr)
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("bad duration in -profile step %q", part)
		}
		phases = append(phases, harness.Phase{Dur: dur, Rates: harness.Split(rate, weights)})
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("empty -profile")
	}
	return phases, nil
}

// parseMix parses "sha1=6,lzw=3,bzip2=1" into one stream per workload
// and the weights beside them.
func parseMix(s string) (streams []harness.Stream, weights []float64, err error) {
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, "=")
		w := 1.0
		if found {
			w, err = strconv.ParseFloat(wstr, 64)
			if err != nil || w <= 0 {
				return nil, nil, fmt.Errorf("bad weight in -mix entry %q", part)
			}
		}
		streams = append(streams, harness.Stream{Class: name})
		weights = append(weights, w)
	}
	if len(streams) == 0 {
		return nil, nil, fmt.Errorf("empty -mix")
	}
	return streams, weights, nil
}
