// The gate's decisions as pure functions: which backend a job goes to,
// which backends the evaluator ejects or re-admits, how long a primary
// gets before its hedge. Each takes a snapshot of routing state and
// returns a decision — no receiver, no lock, no clock, no logger — so
// the callers in score.go, eject.go and defend.go are snapshot → pure
// call → commit, and a simulated cluster can call the same code.

package gate

import (
	"slices"
	"time"

	"wats/internal/client"
)

// stackBackends is the cluster size up to which one pick's scratch
// (views, tried flags, eligible set) stays on the stack.
const stackBackends = 8

// view is what one pick knows about one backend: a value copied out
// under the backend's lock (backend.view), with the breaker read once.
type view struct {
	ready    bool
	breaker  string  // client.Breaker*
	ejected  bool    // probe-only (eject.go)
	probeDue bool    // ejected, and Eject.Probe has passed since its last probe
	tc       float64 // exec EWMA for the job's class in ms, 0 = unknown
	load     float64 // (queued + in-flight) / workers
}

// routable reports whether the backend should receive new work: the last
// readiness poll succeeded and the breaker is not hard-open. A half-open
// breaker stays routable — that route IS the recovery probe.
func (v view) routable() bool { return v.ready && v.breaker != client.BreakerOpen }

// weights are a weighted policy's scorer weights, resolved from
// Policy.Weights once; 0 = scorer absent.
type weights struct{ affinity, queue, health, ejection float64 }

func resolveWeights(p Policy) weights {
	return weights{p.Weights[ScorerAffinity], p.Weights[ScorerQueue], p.Weights[ScorerHealth], p.Weights[ScorerEjection]}
}

// choose picks the backend for one job: its position in views, or -1
// when every backend is flagged in tried (the job's re-route set).
// Unroutable backends and ejected ones are excluded too — unless that
// excludes everyone untried, in which case the choice falls back through
// ejected backends first and then to any untried backend: when the whole
// cluster looks dead, someone has to carry the probe that discovers
// recovery.
//
// Ejected backends re-enter half-open-style: a primary pick (nothing
// tried yet) goes to the first ejected, routable backend whose probe is
// due, reported as probe = true so that the caller can claim the probe
// slot. The probe must be forced — an ejected backend can never win a
// score-based pick, so without this it would be starved of the very
// traffic that could prove its recovery. Hedging (when enabled) protects
// the probe's caller from a still-slow answer.
//
// rr is the round-robin cursor, used by PolicyRoundRobin only, and only
// when the choice is not a probe.
func choose(w weights, kind string, views []view, tried []bool, rr uint64) (idx int, probe bool) {
	tried = tried[:len(views)]
	if !slices.Contains(tried, true) {
		for i, v := range views {
			if v.probeDue && v.routable() {
				return i, true
			}
		}
	}
	var eligArr [stackBackends]int
	elig := eligArr[:0]
	for tier := 0; tier < 3 && len(elig) == 0; tier++ {
		for i, v := range views {
			if !tried[i] && (tier == 2 || v.routable() && (tier == 1 || !v.ejected)) {
				elig = append(elig, i)
			}
		}
	}
	if len(elig) == 0 {
		return -1, false
	}
	switch kind {
	case PolicyRoundRobin:
		return elig[int(rr)%len(elig)], false
	case PolicyLeastLoad:
		best := elig[0]
		for _, i := range elig[1:] {
			if views[i].load < views[best].load {
				best = i
			}
		}
		return best, false
	}

	// The weighted scorer: each eligible backend scores on [0, 1] per
	// scorer and the best weighted sum wins, ties to configuration order
	// (which keeps tests and demos deterministic).
	//
	//   - class-affinity: bestTC / tc — the backend with the lowest learned
	//     exec EWMA for this class scores 1, one k× slower scores 1/k. A
	//     backend with no signal for the class scores slightly above 1
	//     (optimism in the face of uncertainty: an unexplored backend must
	//     beat the incumbent's tie, or sequential load would pin every
	//     class to whichever backend happened to learn first).
	//   - queue-depth: 1 / (1 + load). An idle backend scores 1; each
	//     outstanding job-per-worker halves the remaining margin. Raw load
	//     rather than only over-capacity excess: the stats poll is too
	//     coarse to catch short bursts, so by the time a queue is visible
	//     the tail damage is done — counting in-flight work spills the
	//     overflow early.
	//   - health: closed breaker = 1, half-open = 0.5 (it may carry one
	//     probe but should not win ties against a known-good node),
	//     open or not ready = 0 (only reachable via the fallback).
	//   - ejection: 1 unless ejected, which likewise only matters on the
	//     fallback (normal picks exclude ejected backends before scoring).
	bestTC := 0.0
	for _, i := range elig {
		if tc := views[i].tc; tc > 0 && (bestTC == 0 || tc < bestTC) {
			bestTC = tc
		}
	}
	best, bestScore := -1, -1.0
	for _, i := range elig {
		v := views[i]
		score := 0.0
		if w.affinity > 0 {
			aff := 1.05
			if v.tc > 0 && bestTC > 0 {
				aff = bestTC / v.tc
			}
			score += w.affinity * aff
		}
		if w.queue > 0 {
			score += w.queue / (1 + v.load)
		}
		if w.health > 0 && v.ready {
			switch v.breaker {
			case client.BreakerClosed:
				score += w.health
			case client.BreakerHalfOpen:
				score += w.health * 0.5
			}
		}
		if w.ejection > 0 && !v.ejected {
			score += w.ejection
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best, false
}

// classStat is one class's row of a backend's table: the cluster-level
// TC entry and the ejection signal beside it.
type classStat struct {
	// execMS is the EWMA of backend-reported exec latency in
	// milliseconds, learned from job responses; 0 = none yet.
	execMS float64
	// rttMS is the EWMA of the gate-observed end-to-end round trip over
	// rttN samples. Unlike execMS it sees network rot, and censored
	// samples from cancelled attempts ratchet it upward (eject.go).
	rttMS float64
	rttN  int64
}

// ejectState is the evaluator's memory of one backend.
type ejectState struct {
	ejected     bool      // probe traffic only
	exceedSince time.Time // start of the current run over Factor; zero = none
}

// row is a copy of everything under one backend's lock plus its breaker
// state (backend.row): what the eject evaluator, Snapshot, /v1/healthz,
// /v1/gate/table and /metrics read.
type row struct {
	ready   bool
	breaker string
	polled  *polled
	table   map[string]classStat
	ejectState
}

// transition is one backend's new evaluator state; ratio is the worst
// per-class ratio against the cluster median that caused it.
type transition struct {
	idx   int
	to    ejectState
	ratio float64
}

// ejectStep evaluates every backend against the cluster and returns the
// states that changed, in backend order. Median over the *lower* middle
// element, so a 2-backend cluster compares the slow node against the fast
// one rather than against their midpoint (with an even count a true
// median would dilute the only healthy reference). Factor provides the
// safety margin that keeps a merely-mediocre node in rotation; the last
// routable non-ejected backend is never ejected — degraded beats
// unreachable — counting ejections made earlier in the same pass.
func ejectStep(cfg EjectConfig, rows []row, now time.Time) []transition {
	// Cluster median RTT per class, over backends with enough samples.
	vals := map[string][]float64{}
	for _, v := range rows {
		for class, s := range v.table {
			if s.rttN >= cfg.MinSamples {
				vals[class] = append(vals[class], s.rttMS)
			}
		}
	}
	med := map[string]float64{}
	for class, v := range vals {
		if len(v) < 2 {
			continue // a single estimate has no cluster to deviate from
		}
		slices.Sort(v)
		med[class] = v[(len(v)-1)/2]
	}

	ejected := make([]bool, len(rows))
	for i, v := range rows {
		ejected[i] = v.ejected
	}
	var out []transition
	for i, v := range rows {
		ratio := 0.0
		for class, s := range v.table {
			if m := med[class]; s.rttN >= cfg.MinSamples && m > 0 && s.rttMS/m > ratio {
				ratio = s.rttMS / m
			}
		}
		to := v.ejectState
		switch {
		case v.ejected:
			if ratio > 0 && ratio < cfg.Factor*cfg.RecoverFactor {
				to = ejectState{}
			}
		case ratio < cfg.Factor:
			to.exceedSince = time.Time{}
		case v.exceedSince.IsZero():
			to.exceedSince = now
		case now.Sub(v.exceedSince) >= cfg.Window:
			for j, o := range rows {
				if j != i && !ejected[j] && (view{ready: o.ready, breaker: o.breaker}).routable() {
					to.ejected = true
					break
				}
			}
		}
		if to != v.ejectState {
			ejected[i] = to.ejected
			out = append(out, transition{idx: i, to: to, ratio: ratio})
		}
	}
	return out
}

// hedgeWindow is how many recent round trips per class the hedge delay's
// quantile is taken over; minHedgeSamples is how many a class needs
// before the estimate replaces Hedge.MaxDelay.
const (
	hedgeWindow     = 128
	minHedgeSamples = 16
)

// hedgeDelayOf is how long a primary attempt gets before its hedge
// fires: the configured quantile of the class's window — a ring of
// milliseconds that has had n samples written to it, passed by value and
// sorted here — clamped to [MinDelay, MaxDelay]; MaxDelay verbatim while
// the class is cold.
func hedgeDelayOf(h HedgeConfig, window [hedgeWindow]float64, n int) time.Duration {
	d := h.MaxDelay
	if n >= minHedgeSamples {
		kept := window[:min(n, hedgeWindow)]
		slices.Sort(kept)
		d = time.Duration(kept[int(h.Quantile*float64(len(kept)-1))] * float64(time.Millisecond))
	}
	return min(max(d, h.MinDelay), h.MaxDelay)
}
