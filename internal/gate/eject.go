// Gray-failure defenses, part 2: latency outlier ejection.
//
// The paper's core move — notice from observed latency that an
// execution unit is effectively slow, steer work away, keep probing for
// recovery — applied to whole backends. The signal is the gate-observed
// end-to-end round trip per (backend, class), NOT the backend's
// self-reported exec_ms: a gray node's own clock sees nothing wrong, so
// the number must be measured from the outside. Cancelled attempts
// (hedge losers, timeouts) never produce a full sample, so they fold in
// as *censored* observations — "it took at least this long" — which
// ratchet the EWMA upward but are ignored when they carry no
// information (elapsed below the current estimate). Without censoring a
// fully-wedged backend would paradoxically look fast, because only its
// rare quick answers would ever be measured.
//
// The evaluator demotes a backend to probe-only when its worst
// per-class ratio against the cluster median exceeds Factor for a
// sustained Window, and re-admits it half-open-style: one live request
// per Probe interval carries the probe (protected by hedging, when
// enabled), and sustained recovery (ratio back under
// Factor×RecoverFactor) lifts the ejection. The last routable
// non-ejected backend is never ejected — degraded beats unreachable.
package gate

import (
	"math"
	"time"
)

// EjectConfig tunes latency outlier ejection. The zero value disables
// it.
type EjectConfig struct {
	// Enabled turns the evaluator on.
	Enabled bool
	// Factor is the ejection threshold: a backend whose per-class RTT
	// EWMA exceeds Factor × the cluster median for Window is ejected
	// (0 = 3; must be > 1).
	Factor float64
	// Window is how long the excess must be sustained before ejection
	// (0 = 1.5s).
	Window time.Duration
	// Probe is the minimum spacing between probe requests routed to an
	// ejected backend (0 = 250ms).
	Probe time.Duration
	// MinSamples is how many RTT observations a (backend, class) needs
	// before it participates in median/ratio math (0 = 5).
	MinSamples int64
	// RecoverFactor sets the re-admission hysteresis: an ejected backend
	// returns when its worst ratio drops below Factor × RecoverFactor
	// (0 = 0.7; must be in (0, 1]).
	RecoverFactor float64
}

// takeProbe claims the backend's probe slot: at most one per Probe
// interval.
func (b *backend) takeProbe(now time.Time, every time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now.Sub(b.lastProbe) < every {
		return false
	}
	b.lastProbe = now
	b.probes.Add(1)
	return true
}

// ejectLoop runs the evaluator at a cadence fine enough to resolve the
// sustain window.
func (g *Gate) ejectLoop() {
	defer g.wg.Done()
	t := time.NewTicker(max(g.cfg.Eject.Window/4, 25*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.ejectOnce(g.now())
		}
	}
}

// ejectOnce is one evaluator pass: copy every backend's row, let
// ejectStep (policy.go) decide, commit each changed state under its
// backend's lock and log the ejections and re-admissions.
func (g *Gate) ejectOnce(now time.Time) {
	rows := make([]row, len(g.backends))
	for i, b := range g.backends {
		rows[i] = b.row()
	}
	for _, tr := range ejectStep(g.cfg.Eject, rows, now) {
		b := g.backends[tr.idx]
		b.mu.Lock()
		b.ejectState = tr.to
		b.mu.Unlock()
		ratio := math.Round(tr.ratio*100) / 100
		switch {
		case tr.to.ejected && !rows[tr.idx].ejected:
			b.ejections.Add(1)
			g.log.Warn("backend ejected as latency outlier", "backend", b.name, "ratio", ratio, "factor", g.cfg.Eject.Factor)
		case !tr.to.ejected && rows[tr.idx].ejected:
			g.log.Info("backend re-admitted after ejection", "backend", b.name, "ratio", ratio)
		}
	}
}
