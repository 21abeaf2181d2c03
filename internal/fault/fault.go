// Package fault is deterministic fault injection for the live runtime and
// the service layer. One Spec names two action sets:
//
//   - task faults — panics, delays and job cancellations induced inside
//     task bodies, keyed by (task class, worker, per-worker task index).
//     The injector is attached through runtime.Config.Fault and consulted
//     behind a single nil-check before each task body runs, the same
//     disabled-cost discipline as the observability hooks.
//   - network faults — added latency, slow-drip responses, connection
//     resets and blackholes on the job API, keyed by (endpoint key,
//     per-key request index). Middleware attaches them to a watsd handler
//     and Transport to a gate's backend connections.
//
// Every decision is a pure function of the seed and its key: one
// internal/rng stream (xoshiro256** over splitmix64) is derived from
// both, so the same seed reproduces the exact same fault schedule run
// after run, whatever order the scheduler or the network visits the
// keys in. That is what lets chaos tests assert exact accounting
// ("wats_panics_total == injected count", "live network faults == the
// plan replayed") instead of statistical bounds.
//
// Network faults can be confined to a time-boxed flap window
// ("flap=AFTER:DUR"), which is how the watsaccept chaos scenario makes a
// node gray-fail mid-run: the injector only assigns request indices
// while the window is open, so the planned schedule over indices
// 0..Assigned(key) recomputes exactly from a fresh injector.
package fault

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wats/internal/rng"
)

// Kind is the kind of one injected task fault.
type Kind uint8

const (
	// None: the task runs untouched.
	None Kind = iota
	// Panic: the task body panics before running (the runtime's isolation
	// layer recovers it and poisons the owning job).
	Panic
	// Delay: the task body is stalled for Action.Delay before running —
	// the knob that makes watchdog stalls and deadline expiries inducible.
	Delay
	// Cancel: the task's job context is aborted before the body runs, as
	// if the caller had cancelled the job at exactly this point.
	Cancel
)

// String names the kind for logs and test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Cancel:
		return "cancel"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Action is one planned task fault.
type Action struct {
	Kind  Kind
	Delay time.Duration // for Kind == Delay
}

// NetAction is the planned fate of one request. Reset and Blackhole are
// mutually exclusive (one partitioned draw); Latency and Drip are
// independent draws so a flapping node can be slow to admit AND slow to
// answer at once, which is what real gray failures do.
type NetAction struct {
	Latency   time.Duration // added before the request is served
	Drip      bool          // trickle the response body
	Reset     bool          // abort the connection mid-flight
	Blackhole bool          // accept, then hang until the peer gives up
}

// Faulty reports whether the action does anything at all.
func (a NetAction) Faulty() bool {
	return a.Latency > 0 || a.Drip || a.Reset || a.Blackhole
}

// Spec configures an Injector. Rates are probabilities in (0, 1], or 0
// for a fault that never fires. The task rates partition one uniform draw
// per task, so PanicRate+DelayRate+CancelRate must not exceed 1, and
// ResetRate+BlackholeRate partition one draw per request; LatencyRate and
// DripRate are independent.
type Spec struct {
	Seed uint64

	PanicRate  float64
	DelayRate  float64
	Delay      time.Duration // how long Delay faults stall
	CancelRate float64

	LatencyRate   float64
	Latency       time.Duration // how much latency faults add
	DripRate      float64
	DripDelay     time.Duration // pause between dripped chunks
	DripChunk     int           // bytes per dripped chunk
	ResetRate     float64
	BlackholeRate float64
	FlapAfter     time.Duration // 0 = network faults are active for the whole run
	FlapDur       time.Duration // how long the flap window stays open
}

// ParseSpec parses the -fault flag syntax, comma-separated clauses:
//
//	panic=RATE                 the task body panics
//	delay=RATE[:DURATION]      the task body stalls first (default 1ms)
//	cancel=RATE                the task's job is cancelled
//	latency=RATE[:DURATION]    added request latency (default 100ms)
//	drip=RATE[:DELAY[:CHUNK]]  trickle responses CHUNK bytes per DELAY (default 64 per 50ms)
//	reset=RATE                 connection reset mid-flight
//	blackhole=RATE             accept, then hang until the peer gives up
//	flap=AFTER:DUR             confine the network faults to [AFTER, AFTER+DUR)
//
// e.g. "panic=0.01,delay=0.05:2ms" or "latency=1:300ms,drip=1:50ms:64,flap=1s:2s".
// An empty string, or "none", is the zero Spec (inject nothing).
func ParseSpec(s string, seed uint64) (Spec, error) {
	spec := Spec{Seed: seed}
	if strings.TrimSpace(s) == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, found := strings.Cut(part, "=")
		if !found {
			return spec, fmt.Errorf("fault: clause %q is not name=value", part)
		}
		if err := spec.clause(name, strings.Split(val, ":")); err != nil {
			return spec, fmt.Errorf("fault: %v in %q", err, part)
		}
	}
	if sum := spec.PanicRate + spec.DelayRate + spec.CancelRate; sum > 1 {
		return spec, fmt.Errorf("fault: panic+delay+cancel rates sum to %.3f > 1", sum)
	}
	if sum := spec.ResetRate + spec.BlackholeRate; sum > 1 {
		return spec, fmt.Errorf("fault: reset+blackhole rates sum to %.3f > 1", sum)
	}
	if spec.FlapDur > 0 && !spec.Net() {
		return spec, errors.New("fault: flap confines network faults, and the spec names none")
	}
	return spec, nil
}

// clause applies one name=F0:F1:... clause to the spec.
func (s *Spec) clause(name string, f []string) error {
	if name == "flap" {
		if len(f) != 2 {
			return errors.New("flap needs AFTER:DUR")
		}
		after, err1 := time.ParseDuration(f[0])
		dur, err2 := time.ParseDuration(f[1])
		if err1 != nil || err2 != nil || after < 0 || dur <= 0 {
			return errors.New("bad flap window (need AFTER >= 0, DUR > 0)")
		}
		s.FlapAfter, s.FlapDur = after, dur
		return nil
	}
	var (
		rate   *float64
		dur    *time.Duration // the optional second field, when the clause has one
		fields = 1
	)
	switch name {
	case "panic":
		rate = &s.PanicRate
	case "cancel":
		rate = &s.CancelRate
	case "reset":
		rate = &s.ResetRate
	case "blackhole":
		rate = &s.BlackholeRate
	case "delay":
		rate, dur, fields = &s.DelayRate, &s.Delay, 2
		s.Delay = time.Millisecond
	case "latency":
		rate, dur, fields = &s.LatencyRate, &s.Latency, 2
		s.Latency = 100 * time.Millisecond
	case "drip":
		rate, dur, fields = &s.DripRate, &s.DripDelay, 3
		s.DripDelay, s.DripChunk = 50*time.Millisecond, 64
	default:
		return fmt.Errorf("unknown fault kind %q (panic|delay|cancel|latency|drip|reset|blackhole|flap)", name)
	}
	if len(f) > fields {
		return errors.New("too many fields")
	}
	// Written so NaN fails too: every comparison with NaN is false.
	r, err := strconv.ParseFloat(f[0], 64)
	if err != nil || !(r > 0 && r <= 1) {
		return errors.New("bad rate (need 0 < rate <= 1)")
	}
	*rate = r
	if len(f) > 1 {
		d, err := time.ParseDuration(f[1])
		if err != nil || d <= 0 {
			return errors.New("bad duration (need > 0)")
		}
		*dur = d
	}
	if len(f) > 2 {
		n, err := strconv.Atoi(f[2])
		if err != nil || n <= 0 {
			return errors.New("bad drip chunk (need > 0)")
		}
		s.DripChunk = n
	}
	return nil
}

// String renders the spec back in the flag syntax.
func (s Spec) String() string {
	var parts []string
	if s.PanicRate > 0 {
		parts = append(parts, fmt.Sprintf("panic=%g", s.PanicRate))
	}
	if s.DelayRate > 0 {
		parts = append(parts, fmt.Sprintf("delay=%g:%v", s.DelayRate, s.Delay))
	}
	if s.CancelRate > 0 {
		parts = append(parts, fmt.Sprintf("cancel=%g", s.CancelRate))
	}
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
	if s.FlapDur > 0 {
		parts = append(parts, fmt.Sprintf("flap=%v:%v", s.FlapAfter, s.FlapDur))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Tasks reports whether the spec injects any task fault.
func (s Spec) Tasks() bool { return s.PanicRate > 0 || s.DelayRate > 0 || s.CancelRate > 0 }

// Net reports whether the spec injects any network fault.
func (s Spec) Net() bool {
	return s.LatencyRate > 0 || s.DripRate > 0 || s.ResetRate > 0 || s.BlackholeRate > 0
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool { return s.Tasks() || s.Net() }

// stream derives the rng stream behind one decision: the name hashed
// with FNV-1a and xored with the seed, then each id folded in by a
// multiply with the 64-bit golden ratio and an add.
func (s Spec) stream(name string, ids ...uint64) *rng.Source {
	k := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		k ^= uint64(name[i])
		k *= 0x100000001b3
	}
	k ^= s.Seed
	for _, id := range ids {
		k = k*0x9E3779B97F4A7C15 + id
	}
	return rng.New(k)
}

// PanicValue is the value injected panics carry, so recovery layers and
// tests can tell an induced panic from a genuine bug.
type PanicValue struct {
	Class  string
	Worker int
	Index  uint64
}

func (p PanicValue) Error() string {
	return fmt.Sprintf("fault: injected panic (class %q, worker %d, task %d)", p.Class, p.Worker, p.Index)
}

// Injector plans faults deterministically and counts what it injected.
// It is safe for concurrent use: the mutable state is atomic counters
// and the per-key request indices.
type Injector struct {
	spec  Spec
	epoch atomic.Int64 // UnixNano the flap clock measures from

	panics, delays, cancels              atomic.Int64
	latencies, drips, resets, blackholes atomic.Int64

	idx sync.Map // key string -> *atomic.Uint64 (next unassigned request index)
}

// New returns an injector for the spec. The flap clock starts now; call
// Arm to re-anchor it (e.g. when load actually begins).
func New(spec Spec) *Injector {
	in := &Injector{spec: spec}
	in.epoch.Store(time.Now().UnixNano())
	return in
}

// Plan decides the fate of one task, keyed by its class, the executing
// worker and the worker's task index, and counts it. The decision is a
// pure function of (Spec.Seed, class, worker, index): one uniform draw,
// partitioned as [0, panic) [panic, panic+delay) [.., ..+cancel) [.., 1].
func (in *Injector) Plan(class string, worker int, index uint64) Action {
	x := in.spec.stream(class, uint64(worker), index).Float64()
	switch {
	case x < in.spec.PanicRate:
		in.panics.Add(1)
		return Action{Kind: Panic}
	case x < in.spec.PanicRate+in.spec.DelayRate:
		in.delays.Add(1)
		return Action{Kind: Delay, Delay: in.spec.Delay}
	case x < in.spec.PanicRate+in.spec.DelayRate+in.spec.CancelRate:
		in.cancels.Add(1)
		return Action{Kind: Cancel}
	default:
		return Action{}
	}
}

// PlanNet decides the fate of the index-th faulted request on key. The
// decision is a pure function of (Spec.Seed, key, index): the stream's
// first draw is partitioned as [0, reset) [reset, reset+blackhole)
// [.., 1], and — when neither terminal fault fires — two further draws
// decide latency and drip independently. PlanNet does not touch the
// counters; Next does.
func (in *Injector) PlanNet(key string, index uint64) NetAction {
	r := in.spec.stream(key, index)
	x := r.Float64()
	switch {
	case x < in.spec.ResetRate:
		return NetAction{Reset: true}
	case x < in.spec.ResetRate+in.spec.BlackholeRate:
		return NetAction{Blackhole: true}
	}
	var a NetAction
	if r.Float64() < in.spec.LatencyRate {
		a.Latency = in.spec.Latency
	}
	if r.Float64() < in.spec.DripRate {
		a.Drip = true
	}
	return a
}

// Arm re-anchors the flap window at t, so "flap=1s:2s" means one second
// after t rather than one second after New.
func (in *Injector) Arm(t time.Time) { in.epoch.Store(t.UnixNano()) }

// Active reports whether network faults fire at time now: always for
// specs without a flap clause, else only inside [epoch+FlapAfter,
// +FlapDur).
func (in *Injector) Active(now time.Time) bool {
	if !in.spec.Net() {
		return false
	}
	if in.spec.FlapDur <= 0 {
		return true
	}
	open := time.Unix(0, in.epoch.Load()).Add(in.spec.FlapAfter)
	return !now.Before(open) && now.Before(open.Add(in.spec.FlapDur))
}

// Next assigns the next request index for key and returns its planned
// action, counting what it injected. Outside the flap window no index
// is assigned and the zero NetAction is returned, so the assigned index
// range stays dense and exactly replayable via PlanNet.
func (in *Injector) Next(key string) NetAction {
	if !in.Active(time.Now()) {
		return NetAction{}
	}
	ctr, ok := in.idx.Load(key)
	if !ok {
		ctr, _ = in.idx.LoadOrStore(key, new(atomic.Uint64))
	}
	a := in.PlanNet(key, ctr.(*atomic.Uint64).Add(1)-1)
	var c Counts
	c.Add(a)
	in.latencies.Add(c.Latencies)
	in.drips.Add(c.Drips)
	in.resets.Add(c.Resets)
	in.blackholes.Add(c.Blackholes)
	return a
}

// Assigned returns how many request indices have been assigned for key —
// the exclusive upper bound of the range PlanNet replays.
func (in *Injector) Assigned(key string) uint64 {
	ctr, ok := in.idx.Load(key)
	if !ok {
		return 0
	}
	return ctr.(*atomic.Uint64).Load()
}

// Counts is a point-in-time copy of how many faults the injector has
// planned, by kind.
type Counts struct {
	Panics     int64 `json:"panics"`
	Delays     int64 `json:"delays"`
	Cancels    int64 `json:"cancels"`
	Latencies  int64 `json:"latencies"`
	Drips      int64 `json:"drips"`
	Resets     int64 `json:"resets"`
	Blackholes int64 `json:"blackholes"`
}

// Add folds a network action into the counts (how tests and the chaos
// scenario recompute the planned schedule from a fresh injector).
func (c *Counts) Add(a NetAction) {
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

// Counts snapshots the injected-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Panics:     in.panics.Load(),
		Delays:     in.delays.Load(),
		Cancels:    in.cancels.Load(),
		Latencies:  in.latencies.Load(),
		Drips:      in.drips.Load(),
		Resets:     in.resets.Load(),
		Blackholes: in.blackholes.Load(),
	}
}
