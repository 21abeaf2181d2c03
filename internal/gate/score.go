// Backend scoring: the pluggable policy layer that turns the gate's
// three signals (learned class affinity, polled queue pressure, breaker
// + readiness health) into one routing decision. The weighted scorer is
// the paper's TC-table argmin lifted to a cluster; round-robin and
// least-loaded are the baselines the watsaccept gate scenario beats it
// against.
package gate

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wats/internal/client"
)

// Policy kinds.
const (
	PolicyWeighted   = "weighted"
	PolicyRoundRobin = "round-robin"
	PolicyLeastLoad  = "least-loaded"
)

// Scorer names accepted by ParseScorers / -scorers.
const (
	ScorerAffinity = "class-affinity"
	ScorerQueue    = "queue-depth"
	ScorerHealth   = "health"
	ScorerEjection = "ejection"
)

// Policy selects a backend-picking strategy. For PolicyWeighted,
// Weights maps scorer name → weight (> 0); the other kinds ignore it.
type Policy struct {
	Kind    string
	Weights map[string]float64
}

// DefaultScorers is the stock weighted mix: affinity dominates, queue
// pressure breaks ties, health and ejection veto (unhealthy and
// ejected backends are excluded outright, so these weights only matter
// for half-open discounting and the all-excluded fallback).
func DefaultScorers() map[string]float64 {
	return map[string]float64{ScorerAffinity: 3, ScorerQueue: 2, ScorerHealth: 1, ScorerEjection: 1}
}

func (p Policy) validate() error {
	switch p.Kind {
	case PolicyRoundRobin, PolicyLeastLoad:
		return nil
	case PolicyWeighted:
		if len(p.Weights) == 0 {
			return fmt.Errorf("gate: weighted policy needs at least one scorer weight")
		}
		for name, w := range p.Weights {
			switch name {
			case ScorerAffinity, ScorerQueue, ScorerHealth, ScorerEjection:
			default:
				return fmt.Errorf("gate: unknown scorer %q (want %s, %s, %s or %s)",
					name, ScorerAffinity, ScorerQueue, ScorerHealth, ScorerEjection)
			}
			if w <= 0 {
				return fmt.Errorf("gate: scorer %q weight %v must be > 0", name, w)
			}
		}
		return nil
	default:
		return fmt.Errorf("gate: unknown policy %q (want %s, %s or %s)",
			p.Kind, PolicyWeighted, PolicyRoundRobin, PolicyLeastLoad)
	}
}

// String renders the policy the way -policy/-scorers accept it.
func (p Policy) String() string {
	if p.Kind != PolicyWeighted {
		return p.Kind
	}
	names := make([]string, 0, len(p.Weights))
	for n := range p.Weights {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s:%g", n, p.Weights[n])
	}
	return p.Kind + "(" + strings.Join(parts, ",") + ")"
}

// ParseScorers parses the -scorers flag format,
// "class-affinity:3,queue-depth:2,health:1". A bare name gets weight 1.
func ParseScorers(s string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, hasW := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		w := 1.0
		if hasW {
			var err error
			w, err = strconv.ParseFloat(strings.TrimSpace(wstr), 64)
			if err != nil {
				return nil, fmt.Errorf("gate: bad scorer weight %q: %v", part, err)
			}
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("gate: scorer %q listed twice", name)
		}
		out[name] = w
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("gate: empty scorer list")
	}
	return out, nil
}

// stackBackends is the cluster size up to which one pick's scratch
// (tried flags, eligible set, TC values) stays on the stack.
const stackBackends = 8

// pick is pickUntried for a tried set keyed by backend, as the batch
// path keeps one per item.
func (g *Gate) pick(class string, tried map[*backend]bool) *backend {
	var arr [stackBackends]bool
	mask := arr[:]
	if len(g.backends) > len(mask) {
		mask = make([]bool, len(g.backends))
	}
	for i, b := range g.backends {
		mask[i] = tried[b]
	}
	return g.pickUntried(class, mask)
}

// pickUntried chooses the backend for one job of the given class,
// excluding those whose position in g.backends is flagged in tried (the
// job's re-route set; a slice so that a caller can keep it on its
// stack). Unroutable backends (not ready, or breaker hard-open) and
// ejected ones are excluded too — unless that excludes everyone untried,
// in which case the policy falls back through ejected backends first
// and then to any untried backend:
// when the whole cluster looks dead, someone has to carry the probe
// that discovers recovery. Returns nil when every backend has been
// tried.
//
// Ejected backends re-enter half-open-style: a primary pick (empty
// tried set) routes to an ejected-but-due backend directly, at most
// once per Eject.Probe interval. The probe must be forced — an ejected
// backend can never win a score-based pick, so without this it would be
// starved of the very traffic that could prove its recovery. Hedging
// (when enabled) protects the probe's caller from a still-slow answer.
func (g *Gate) pickUntried(class string, tried []bool) *backend {
	if g.cfg.Eject.Enabled && !slices.Contains(tried, true) {
		for _, b := range g.backends {
			if b.ejected.Load() && b.routable() && b.grantProbe(g.cfg.Eject.Probe) {
				return b
			}
		}
	}
	var eligArr [stackBackends]*backend
	elig := eligArr[:0]
	for i, b := range g.backends {
		if !tried[i] && b.routable() && !b.ejected.Load() {
			elig = append(elig, b)
		}
	}
	if len(elig) == 0 {
		for i, b := range g.backends {
			if !tried[i] && b.routable() {
				elig = append(elig, b)
			}
		}
	}
	if len(elig) == 0 {
		for i, b := range g.backends {
			if !tried[i] {
				elig = append(elig, b)
			}
		}
	}
	if len(elig) == 0 {
		return nil
	}
	switch g.cfg.Policy.Kind {
	case PolicyRoundRobin:
		return elig[int(g.rr.Add(1)-1)%len(elig)]
	case PolicyLeastLoad:
		best := elig[0]
		bestLoad := best.load()
		for _, b := range elig[1:] {
			if l := b.load(); l < bestLoad {
				best, bestLoad = b, l
			}
		}
		return best
	default:
		return g.pickWeighted(class, elig)
	}
}

// pickWeighted scores each eligible backend on [0, 1] per scorer and
// takes the best weighted sum. Per-scorer semantics:
//
//   - class-affinity: bestTC / tc_b — the backend with the lowest
//     learned exec EWMA for this class scores 1, a backend k× slower
//     scores 1/k. Backends with no signal for the class score slightly
//     above 1 (optimism in the face of uncertainty: an unexplored
//     backend must beat the incumbent's tie, or sequential load would
//     pin every class to whichever backend happened to learn first).
//   - queue-depth: 1 / (1 + load), load = (queued + in-flight) /
//     workers. An idle backend scores 1; each outstanding
//     job-per-worker halves the remaining margin. Raw load rather than
//     only over-capacity excess: the stats poll is too coarse to catch
//     short bursts, so by the time a queue is visible the tail damage
//     is done — counting in-flight work spills the overflow early.
//   - health: closed breaker = 1, half-open = 0.5 (it may carry one
//     probe but should not win ties against a known-good node),
//     open/not-ready = 0 (only reachable via the all-excluded
//     fallback).
//
// Ties break toward configuration order, which keeps tests and demos
// deterministic.
func (g *Gate) pickWeighted(class string, elig []*backend) *backend {
	// Best (lowest) TC across eligible backends normalizes affinity.
	bestTC := 0.0
	var tcsArr [stackBackends]float64
	tcs := tcsArr[:0]
	for _, b := range elig {
		tc := b.tcFor(class)
		tcs = append(tcs, tc)
		if tc > 0 && (bestTC == 0 || tc < bestTC) {
			bestTC = tc
		}
	}
	w := g.cfg.Policy.Weights
	var best *backend
	bestScore := -1.0
	for i, b := range elig {
		score := 0.0
		if wa := w[ScorerAffinity]; wa > 0 {
			aff := 1.05 // unknown class on this backend: optimistic (see above)
			if tcs[i] > 0 && bestTC > 0 {
				aff = bestTC / tcs[i]
			}
			score += wa * aff
		}
		if wq := w[ScorerQueue]; wq > 0 {
			score += wq / (1 + b.load())
		}
		if wh := w[ScorerHealth]; wh > 0 {
			h := 0.0
			if b.ready.Load() {
				switch b.cl.BreakerState() {
				case client.BreakerClosed:
					h = 1
				case client.BreakerHalfOpen:
					h = 0.5
				}
			}
			score += wh * h
		}
		if we := w[ScorerEjection]; we > 0 && !b.ejected.Load() {
			// Non-ejected backends get the full ejection score; ejected
			// ones score 0, which only matters on the all-excluded
			// fallback path (normal picks exclude them before scoring).
			score += we
		}
		if score > bestScore {
			best, bestScore = b, score
		}
	}
	return best
}
