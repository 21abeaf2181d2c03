// Backend scoring: the pluggable policy layer that turns the gate's
// three signals (learned class affinity, polled queue pressure, breaker
// + readiness health) into one routing decision. The weighted scorer is
// the paper's TC-table argmin lifted to a cluster; round-robin and
// least-loaded are the baselines the watsaccept gate scenario beats it
// against.
package gate

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
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
// Weights maps scorer name → weight (finite, > 0); the other kinds
// ignore it.
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
			// Written so NaN fails too: every comparison with NaN is false.
			if !(w > 0 && w <= math.MaxFloat64) {
				return fmt.Errorf("gate: scorer %q weight %v must be finite and > 0", name, w)
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

// pickUntried chooses the backend for one job of the given class,
// excluding those whose position in g.backends is flagged in tried (the
// job's re-route set; a slice so that a caller can keep it on its
// stack); nil when every backend has been tried. It copies one view out
// of each backend, lets choose (policy.go) decide, and commits what the
// decision consumed: the round-robin cursor, or the probe slot of an
// ejected backend — at most one per Eject.Probe. A commit lost to a
// concurrent pick is chosen again without it.
func (g *Gate) pickUntried(class string, tried []bool) *backend {
	var now time.Time
	var probeEvery time.Duration
	if g.cfg.Eject.Enabled {
		now, probeEvery = g.now(), g.cfg.Eject.Probe
	}
	var arr [stackBackends]view
	views := arr[:0]
	for _, b := range g.backends {
		views = append(views, b.view(class, probeEvery, now))
	}
	for {
		rr := g.rr.Load()
		idx, probe := choose(g.weights, g.cfg.Policy.Kind, views, tried, rr)
		switch {
		case idx < 0:
			return nil
		case probe:
			if g.backends[idx].takeProbe(now, probeEvery) {
				return g.backends[idx]
			}
			views[idx].probeDue = false
		case g.cfg.Policy.Kind != PolicyRoundRobin || g.rr.CompareAndSwap(rr, rr+1):
			return g.backends[idx]
		}
	}
}
