package gate

import (
	"math"
	"slices"
	"testing"
	"time"

	"wats/internal/client"
)

func TestParseScorers(t *testing.T) {
	w, err := ParseScorers("class-affinity:3,queue-depth:2,health:1")
	if err != nil {
		t.Fatal(err)
	}
	if w[ScorerAffinity] != 3 || w[ScorerQueue] != 2 || w[ScorerHealth] != 1 {
		t.Fatalf("weights: %v", w)
	}
	// Bare names default to weight 1.
	w, err = ParseScorers("health, queue-depth:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if w[ScorerHealth] != 1 || w[ScorerQueue] != 0.5 {
		t.Fatalf("weights: %v", w)
	}
	for _, bad := range []string{"", "health:x", "health:1,health:2"} {
		if _, err := ParseScorers(bad); err == nil {
			t.Fatalf("ParseScorers(%q) accepted", bad)
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	good := []Policy{
		{Kind: PolicyRoundRobin},
		{Kind: PolicyLeastLoad},
		{Kind: PolicyWeighted, Weights: DefaultScorers()},
	}
	for _, p := range good {
		if err := p.validate(); err != nil {
			t.Fatalf("%v rejected: %v", p, err)
		}
	}
	bad := []Policy{
		{Kind: "random"},
		{Kind: PolicyWeighted}, // no weights
		{Kind: PolicyWeighted, Weights: map[string]float64{"latency": 1}},             // unknown scorer
		{Kind: PolicyWeighted, Weights: map[string]float64{ScorerQueue: 0}},           // non-positive
		{Kind: PolicyWeighted, Weights: map[string]float64{ScorerQueue: math.NaN()}},  // not a number
		{Kind: PolicyWeighted, Weights: map[string]float64{ScorerQueue: math.Inf(1)}}, // not finite
	}
	for _, p := range bad {
		if err := p.validate(); err == nil {
			t.Fatalf("%v accepted", p)
		}
	}
	if s := (Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}).String(); s != "weighted(class-affinity:3,ejection:1,health:1,queue-depth:2)" {
		t.Fatalf("String: %q", s)
	}
}

// scoreEnv builds a Gate with hand-set backend state and no pollers —
// pick unit tests on a single goroutine, which is why they write the
// state under backend.mu without taking it.
func scoreEnv(t *testing.T, policy Policy, n int) *Gate {
	t.Helper()
	g := &Gate{cfg: Config{Policy: policy, Alpha: 0.3, MaxAttempts: n}, weights: resolveWeights(policy), now: time.Now}
	for i := 0; i < n; i++ {
		cl, err := client.New(client.Config{BaseURL: "http://127.0.0.1:1"})
		if err != nil {
			t.Fatal(err)
		}
		g.backends = append(g.backends, &backend{name: string(rune('a' + i)), cl: cl, ready: true, table: map[string]classStat{}})
	}
	return g
}

// pick is pickUntried with the tried set given as backends.
func pick(g *Gate, class string, tried ...*backend) *backend {
	mask := make([]bool, len(g.backends))
	for _, b := range tried {
		mask[slices.Index(g.backends, b)] = true
	}
	return g.pickUntried(class, mask)
}

// TestPickWeightedAffinity: once the TC table knows a class, the
// weighted scorer routes it to the backend with the lowest learned
// latency, even when that backend is listed last.
func TestPickWeightedAffinity(t *testing.T) {
	g := scoreEnv(t, Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}, 3)
	g.backends[0].table["heavy"] = classStat{execMS: 40}
	g.backends[1].table["heavy"] = classStat{execMS: 25}
	g.backends[2].table["heavy"] = classStat{execMS: 10}
	if b := pick(g, "heavy"); b != g.backends[2] {
		t.Fatalf("picked %q, want the fastest backend c", b.name)
	}
	// Excluding the winner falls through to the next-best.
	if b := pick(g, "heavy", g.backends[2]); b != g.backends[1] {
		t.Fatalf("picked %q, want b", b.name)
	}
}

// TestPickWeightedExploresUnknown: a backend with no TC entry for the
// class must win against a tied incumbent, or it would never be
// learned under sequential load.
func TestPickWeightedExploresUnknown(t *testing.T) {
	g := scoreEnv(t, Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}, 2)
	g.backends[0].table["heavy"] = classStat{execMS: 10} // the incumbent: learned, fast
	if b := pick(g, "heavy"); b != g.backends[1] {
		t.Fatalf("picked %q, want the unexplored backend b", b.name)
	}
}

// TestPickWeightedQueuePressure: equal affinity, unequal load — the
// queue-depth scorer steers to the idler backend.
func TestPickWeightedQueuePressure(t *testing.T) {
	g := scoreEnv(t, Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}, 2)
	g.backends[0].table["heavy"] = classStat{execMS: 10}
	g.backends[1].table["heavy"] = classStat{execMS: 10}
	g.backends[0].inflight.Store(64)
	if b := pick(g, "heavy"); b != g.backends[1] {
		t.Fatalf("picked %q, want the idle backend b", b.name)
	}
}

// TestPickExcludesUnready: a not-ready backend is skipped outright;
// when every backend is excluded, pick falls back to any untried node
// (someone has to probe a cluster that looks dead).
func TestPickExcludesUnready(t *testing.T) {
	g := scoreEnv(t, Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}, 2)
	g.backends[0].ready = false
	for i := 0; i < 5; i++ {
		if b := pick(g, "x"); b != g.backends[1] {
			t.Fatalf("picked unready backend %q", b.name)
		}
	}
	g.backends[1].ready = false
	if b := pick(g, "x"); b == nil {
		t.Fatal("all-dead cluster must still pick a probe target")
	}
	if b := pick(g, "x", g.backends[0], g.backends[1]); b != nil {
		t.Fatalf("everything tried, still picked %q", b.name)
	}
}

// TestPickRoundRobinSpreads: the baseline policy rotates evenly across
// healthy backends.
func TestPickRoundRobinSpreads(t *testing.T) {
	g := scoreEnv(t, Policy{Kind: PolicyRoundRobin}, 3)
	counts := map[*backend]int{}
	for i := 0; i < 30; i++ {
		counts[pick(g, "x")]++
	}
	for _, b := range g.backends {
		if counts[b] != 10 {
			t.Fatalf("uneven rotation: %v", counts)
		}
	}
}

// TestPickLeastLoaded: the baseline picks the minimum-load backend
// using the gate-side inflight counts.
func TestPickLeastLoaded(t *testing.T) {
	g := scoreEnv(t, Policy{Kind: PolicyLeastLoad}, 3)
	g.backends[0].inflight.Store(5)
	g.backends[1].inflight.Store(1)
	g.backends[2].inflight.Store(9)
	if b := pick(g, "x"); b != g.backends[1] {
		t.Fatalf("picked %q, want the least-loaded backend b", b.name)
	}
}
