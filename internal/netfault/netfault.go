// Package netfault is deterministic network fault injection for the
// service layer: added latency, slow-drip responses, connection resets
// and blackholes induced on the wire (or just above it), keyed by
// (seed, endpoint key, per-key request index) so a given seed
// reproduces the exact same fault schedule run after run — the same
// exact-accounting property internal/fault gives task bodies, extended
// to the network path between watsgate and its backends.
//
// Three attachment points cover the layers a gray failure can live at:
//
//   - Middleware wraps a watsd http.Handler and degrades the job-serving
//     endpoints while /v1/readyz and /v1/stats stay crisp — the gray
//     failure model: the node looks healthy to every control-plane probe
//     while its data path rots.
//   - Transport wraps an http.RoundTripper on the client (gate) side, for
//     chaos that the server never sees coming.
//   - Proxy is a TCP-level chaos proxy for black-box tests against real
//     listeners.
//
// Faults can be confined to a time-boxed flap window ("flap=AFTER:DUR"),
// which is how the watsaccept chaos scenario makes a node gray-fail
// mid-run: the spec is armed when load starts and the injector only
// assigns fault indices while the window is open, so the planned
// schedule over indices 0..Assigned(key) recomputes exactly from a
// fresh injector.
package netfault

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/rng"
)

// Action is the planned fate of one request (or connection). Reset and
// Blackhole are mutually exclusive (one partitioned draw); Latency and
// Drip are independent draws so a flapping node can be slow to admit
// AND slow to answer at once, which is what real gray failures do.
type Action struct {
	Latency   time.Duration // added before the request is served
	Drip      bool          // trickle the response body
	Reset     bool          // abort the connection mid-flight
	Blackhole bool          // accept, then hang until the peer gives up
}

// Faulty reports whether the action does anything at all.
func (a Action) Faulty() bool {
	return a.Latency > 0 || a.Drip || a.Reset || a.Blackhole
}

// Spec configures an Injector. Rates are per-request probabilities in
// [0, 1]; ResetRate+BlackholeRate must not exceed 1 (they partition one
// uniform draw), while LatencyRate and DripRate are independent.
type Spec struct {
	Seed          uint64
	LatencyRate   float64
	Latency       time.Duration // how much latency faults add
	DripRate      float64
	DripDelay     time.Duration // pause between dripped chunks
	DripChunk     int           // bytes per dripped chunk
	ResetRate     float64
	BlackholeRate float64
	FlapAfter     time.Duration // 0 = faults are active for the whole run
	FlapDur       time.Duration // how long the flap window stays open
}

func parseRate(part, val string) (float64, error) {
	rate, err := strconv.ParseFloat(val, 64)
	if err != nil || rate <= 0 || rate > 1 {
		return 0, fmt.Errorf("netfault: bad rate in %q (need 0 < rate <= 1)", part)
	}
	return rate, nil
}

// ParseSpec parses the -netfault flag syntax: comma-separated clauses
//
//	latency=RATE:DURATION    added request latency
//	drip=RATE:DELAY[:CHUNK]  trickle responses CHUNK bytes per DELAY
//	reset=RATE               connection reset mid-flight
//	blackhole=RATE           accept then hang until the peer gives up
//	flap=AFTER:DUR           confine all faults to [AFTER, AFTER+DUR)
//
// e.g. "latency=1:300ms,drip=1:50ms:64,flap=1s:2s". An empty string is
// the zero Spec (inject nothing).
func ParseSpec(s string, seed uint64) (Spec, error) {
	spec := Spec{Seed: seed}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, found := strings.Cut(part, "=")
		if !found {
			return spec, fmt.Errorf("netfault: clause %q is not name=value", part)
		}
		switch name {
		case "latency":
			rateStr, durStr, found := strings.Cut(val, ":")
			rate, err := parseRate(part, rateStr)
			if err != nil {
				return spec, err
			}
			spec.LatencyRate = rate
			spec.Latency = 100 * time.Millisecond
			if found {
				d, err := time.ParseDuration(durStr)
				if err != nil || d <= 0 {
					return spec, fmt.Errorf("netfault: bad duration in %q (need > 0)", part)
				}
				spec.Latency = d
			}
		case "drip":
			fields := strings.Split(val, ":")
			rate, err := parseRate(part, fields[0])
			if err != nil {
				return spec, err
			}
			spec.DripRate = rate
			spec.DripDelay = 50 * time.Millisecond
			spec.DripChunk = 64
			if len(fields) > 1 {
				d, err := time.ParseDuration(fields[1])
				if err != nil || d <= 0 {
					return spec, fmt.Errorf("netfault: bad drip delay in %q (need > 0)", part)
				}
				spec.DripDelay = d
			}
			if len(fields) > 2 {
				n, err := strconv.Atoi(fields[2])
				if err != nil || n <= 0 {
					return spec, fmt.Errorf("netfault: bad drip chunk in %q (need > 0)", part)
				}
				spec.DripChunk = n
			}
			if len(fields) > 3 {
				return spec, fmt.Errorf("netfault: too many fields in %q", part)
			}
		case "reset":
			rate, err := parseRate(part, val)
			if err != nil {
				return spec, err
			}
			spec.ResetRate = rate
		case "blackhole":
			rate, err := parseRate(part, val)
			if err != nil {
				return spec, err
			}
			spec.BlackholeRate = rate
		case "flap":
			afterStr, durStr, found := strings.Cut(val, ":")
			if !found {
				return spec, fmt.Errorf("netfault: flap needs AFTER:DUR in %q", part)
			}
			after, err := time.ParseDuration(afterStr)
			if err != nil || after < 0 {
				return spec, fmt.Errorf("netfault: bad flap start in %q (need >= 0)", part)
			}
			dur, err := time.ParseDuration(durStr)
			if err != nil || dur <= 0 {
				return spec, fmt.Errorf("netfault: bad flap duration in %q (need > 0)", part)
			}
			spec.FlapAfter = after
			spec.FlapDur = dur
		default:
			return spec, fmt.Errorf("netfault: unknown fault kind %q (latency|drip|reset|blackhole|flap)", name)
		}
	}
	if sum := spec.ResetRate + spec.BlackholeRate; sum > 1 {
		return spec, fmt.Errorf("netfault: reset+blackhole rates sum to %.3f > 1", sum)
	}
	return spec, nil
}

// String renders the spec back in the flag syntax.
func (s Spec) String() string {
	var parts []string
	if s.LatencyRate > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%v", s.LatencyRate, s.Latency))
	}
	if s.DripRate > 0 {
		parts = append(parts, fmt.Sprintf("drip=%g:%v:%d", s.DripRate, s.DripDelay, s.DripChunk))
	}
	if s.ResetRate > 0 {
		parts = append(parts, fmt.Sprintf("reset=%g", s.ResetRate))
	}
	if s.BlackholeRate > 0 {
		parts = append(parts, fmt.Sprintf("blackhole=%g", s.BlackholeRate))
	}
	if len(parts) == 0 {
		return "none"
	}
	out := strings.Join(parts, ",")
	if s.FlapDur > 0 {
		out += fmt.Sprintf(",flap=%v:%v", s.FlapAfter, s.FlapDur)
	}
	return out
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.LatencyRate > 0 || s.DripRate > 0 || s.ResetRate > 0 || s.BlackholeRate > 0
}

// Counts is a point-in-time copy of how many faults the injector has
// assigned, by kind.
type Counts struct {
	Latencies  int64 `json:"latencies"`
	Drips      int64 `json:"drips"`
	Resets     int64 `json:"resets"`
	Blackholes int64 `json:"blackholes"`
}

// Add folds the action into the counts (used by tests and demos that
// recompute the planned schedule from a fresh injector).
func (c *Counts) Add(a Action) {
	if a.Latency > 0 {
		c.Latencies++
	}
	if a.Drip {
		c.Drips++
	}
	if a.Reset {
		c.Resets++
	}
	if a.Blackhole {
		c.Blackholes++
	}
}

// Injector plans network faults deterministically and counts what it
// injected. Plan is pure; Next assigns per-key indices and is safe for
// concurrent use.
type Injector struct {
	spec  Spec
	epoch atomic.Int64 // UnixNano the flap clock measures from

	latencies  atomic.Int64
	drips      atomic.Int64
	resets     atomic.Int64
	blackholes atomic.Int64

	idx sync.Map // key string -> *atomic.Uint64 (next unassigned index)
}

// New returns an injector for the spec. The flap clock starts now; call
// Arm to re-anchor it (e.g. when load actually begins).
func New(spec Spec) *Injector {
	in := &Injector{spec: spec}
	in.epoch.Store(time.Now().UnixNano())
	return in
}

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// Arm re-anchors the flap window at t, so "flap=1s:2s" means one second
// after t rather than one second after New.
func (in *Injector) Arm(t time.Time) { in.epoch.Store(t.UnixNano()) }

// Active reports whether faults fire at time now: always true for specs
// without a flap clause, else only inside [epoch+FlapAfter, +FlapDur).
func (in *Injector) Active(now time.Time) bool {
	if !in.spec.Enabled() {
		return false
	}
	if in.spec.FlapDur <= 0 {
		return true
	}
	open := time.Unix(0, in.epoch.Load()).Add(in.spec.FlapAfter)
	return !now.Before(open) && now.Before(open.Add(in.spec.FlapDur))
}

// fnv1a hashes the endpoint key into the fault key.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Plan decides the fate of the index-th faulted request on key. The
// decision is a pure function of (Spec.Seed, key, index): one stream is
// derived from that key; its first draw is partitioned as
// [0, reset) [reset, reset+blackhole) [.., 1], and — when neither
// terminal fault fires — two further draws decide latency and drip
// independently. Plan does not touch the counters; Next does.
func (in *Injector) Plan(key string, index uint64) Action {
	k := fnv1a(key) ^ in.spec.Seed
	k = k*0x9E3779B97F4A7C15 + index
	r := rng.New(k)
	x := r.Float64()
	switch {
	case x < in.spec.ResetRate:
		return Action{Reset: true}
	case x < in.spec.ResetRate+in.spec.BlackholeRate:
		return Action{Blackhole: true}
	}
	var a Action
	if r.Float64() < in.spec.LatencyRate {
		a.Latency = in.spec.Latency
	}
	if r.Float64() < in.spec.DripRate {
		a.Drip = true
	}
	return a
}

// Next assigns the next fault index for key and returns its planned
// action, counting what it injected. Outside the flap window no index
// is assigned and the zero Action is returned, so the assigned index
// range stays dense and exactly replayable via Plan.
func (in *Injector) Next(key string) Action {
	if !in.Active(time.Now()) {
		return Action{}
	}
	ctr, ok := in.idx.Load(key)
	if !ok {
		ctr, _ = in.idx.LoadOrStore(key, new(atomic.Uint64))
	}
	index := ctr.(*atomic.Uint64).Add(1) - 1
	a := in.Plan(key, index)
	if a.Latency > 0 {
		in.latencies.Add(1)
	}
	if a.Drip {
		in.drips.Add(1)
	}
	if a.Reset {
		in.resets.Add(1)
	}
	if a.Blackhole {
		in.blackholes.Add(1)
	}
	return a
}

// Assigned returns how many fault indices have been assigned for key —
// the exclusive upper bound of the range Plan replays.
func (in *Injector) Assigned(key string) uint64 {
	ctr, ok := in.idx.Load(key)
	if !ok {
		return 0
	}
	return ctr.(*atomic.Uint64).Load()
}

// Keys lists the keys that have assigned at least one index.
func (in *Injector) Keys() []string {
	var keys []string
	in.idx.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	return keys
}

// Counts snapshots the injected-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Latencies:  in.latencies.Load(),
		Drips:      in.drips.Load(),
		Resets:     in.resets.Load(),
		Blackholes: in.blackholes.Load(),
	}
}
