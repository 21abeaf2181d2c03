// Gray-failure defenses, part 1: hedged dispatch and the retry budget.
//
// A gray-failing backend passes /v1/readyz and never trips the breaker
// — every probe the gate's health machinery runs says "fine" — yet
// serves 10-100× slower. Two defenses bound the damage on the request
// path itself:
//
// Hedging: for sync submissions, if the primary attempt has not
// answered within an adaptive per-class delay (≈ the recent p95 of
// gate-observed round trips, clamped to [MinDelay, MaxDelay]), one
// hedge fires at the next-best backend. First final answer wins and the
// loser's HTTP request is cancelled; the backend side (server.submitSync)
// abandons a cancelled request's job before it is accounted completed,
// which is what keeps accounting at-most-once (DESIGN.md §14). Async
// submissions are never hedged: a 202 is an admission that cannot be
// recalled, so a hedged async pair could both execute.
//
// Retry budget: hedges and re-routes both draw tokens from one bucket
// that earns Budget.Ratio tokens per primary request (default cap ~10%
// of primary traffic, burst 32). When the bucket is empty the gate
// degrades to single-attempt routing instead of amplifying an outage
// with a retry storm — the same "retries must be budgeted, not free"
// discipline the client's breaker applies per backend, applied fleet-wide.
package gate

import (
	"sync"
	"time"
)

// HedgeConfig tunes hedged dispatch. The zero value disables hedging
// (existing deployments keep single-dispatch semantics).
type HedgeConfig struct {
	// Enabled turns hedging on for sync unary submissions.
	Enabled bool
	// Quantile of recent gate-observed latency used as the hedge delay
	// (0 = 0.95).
	Quantile float64
	// MinDelay floors the hedge delay (0 = 5ms) so sub-millisecond
	// classes don't hedge on scheduler jitter.
	MinDelay time.Duration
	// MaxDelay caps the hedge delay and is used verbatim while a class
	// has too few samples to estimate a quantile (0 = 1s).
	MaxDelay time.Duration
}

// BudgetConfig tunes the shared retry budget. The zero value is
// unlimited (no budget), matching pre-defense behavior.
type BudgetConfig struct {
	// Ratio is tokens earned per primary request; hedges and re-routes
	// spend one token each. 0.1 caps retry volume at ~10% of primary
	// traffic in steady state. 0 = unlimited.
	Ratio float64
	// Burst is the bucket capacity — the slack that covers the window
	// between a backend going gray and its ejection (0 = 32 when Ratio
	// is set).
	Burst float64
}

// retryBudget is the token bucket: earn(Ratio) per primary, take() one
// per hedge or re-route. A plain mutex — two tiny critical sections per
// request, nowhere near any hot path.
type retryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
}

func newRetryBudget(cfg BudgetConfig) *retryBudget {
	if cfg.Ratio <= 0 {
		return nil // unlimited
	}
	b := &retryBudget{ratio: cfg.Ratio, burst: cfg.Burst}
	if b.burst <= 0 {
		b.burst = 32
	}
	// Start full: a failure in the first seconds of a gate's life is the
	// norm in tests and rolling restarts, not an abuse of the budget.
	b.tokens = b.burst
	return b
}

func (b *retryBudget) earn() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

func (b *retryBudget) take() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// earnPrimary accounts one primary dispatch: it feeds the budget and
// the primaries counter the budget's cap is measured against.
func (g *Gate) earnPrimary() {
	g.primaries.Add(1)
	if g.budget != nil {
		g.budget.earn()
	}
}

// takeRetry gates one extra dispatch (hedge or re-route) on the budget,
// counting what was granted or denied.
func (g *Gate) takeRetry(hedge bool) bool {
	if g.budget != nil && !g.budget.take() {
		g.budgetDenied.Add(1)
		return false
	}
	if hedge {
		g.hedges.Add(1)
	} else {
		g.rerouteLaunches.Add(1)
	}
	return true
}

// latRing is a ring of recent gate-observed round-trip latencies for
// one class, across all backends — the sample pool the hedge delay's
// quantile is computed from, guarded by Gate.hedgeMu. Cluster-wide
// rather than per-backend on purpose: the delay answers "how long do
// healthy requests take", and a gray backend's own tail must not stretch
// the very trigger meant to catch it. (Outliers still land in the ring,
// but at p95 over a 128-sample window a single slow backend cannot drag
// the estimate far before ejection removes it.)
type latRing struct {
	buf [hedgeWindow]float64 // milliseconds
	n   int                  // total samples ever recorded
}

// hedgeDelay is how long the primary attempt gets before a hedge fires
// for this class: hedgeDelayOf (policy.go) over a copy of its window.
func (g *Gate) hedgeDelay(class string) time.Duration {
	var ring latRing
	g.hedgeMu.Lock()
	if r := g.hedgeWindows[class]; r != nil {
		ring = *r
	}
	g.hedgeMu.Unlock()
	return hedgeDelayOf(g.cfg.Hedge, ring.buf, ring.n)
}

// recordLat feeds one completed round trip into the class's hedge ring.
func (g *Gate) recordLat(class string, ms float64) {
	if ms <= 0 {
		return
	}
	g.hedgeMu.Lock()
	ring := g.hedgeWindows[class]
	if ring == nil {
		ring = &latRing{}
		g.hedgeWindows[class] = ring
	}
	ring.buf[ring.n%len(ring.buf)] = ms
	ring.n++
	g.hedgeMu.Unlock()
}

// DefenseStats is a point-in-time copy of the gate-level defense
// counters — what the watsaccept chaos scenario gates its retry-budget
// check on.
type DefenseStats struct {
	// Primaries counts first dispatches (the budget's denominator).
	Primaries uint64 `json:"primaries"`
	// Hedges / HedgeWins count hedge launches and hedges whose answer
	// was the one returned to the caller.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// RerouteLaunches counts budgeted re-route dispatches (transport,
	// 429, 503 moves), unary and batch.
	RerouteLaunches uint64 `json:"reroute_launches"`
	// BudgetDenied counts extra dispatches the empty bucket refused.
	BudgetDenied uint64 `json:"budget_denied"`
}

// Defenses snapshots the gate-level defense counters.
func (g *Gate) Defenses() DefenseStats {
	return DefenseStats{
		Primaries:       g.primaries.Load(),
		Hedges:          g.hedges.Load(),
		HedgeWins:       g.hedgeWins.Load(),
		RerouteLaunches: g.rerouteLaunches.Load(),
		BudgetDenied:    g.budgetDenied.Load(),
	}
}
