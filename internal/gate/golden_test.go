package gate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"testing"
	"time"

	"wats/internal/client"
	"wats/internal/obs"
	"wats/internal/rng"
)

// Goldens for the gate's three decisions — which backend a job goes to,
// when a backend is ejected and re-admitted, how long a primary gets
// before its hedge — each a SHA-256 over the decisions a seeded sequence
// of states produces. The digests were recorded on the code as it stood
// before the routing state moved under one lock; the helpers of the first
// section are the only place that knows how that state is reached and may
// change with it, the sequences and the digests may not.

const (
	pickGoldenDigest  = "1e5f24c8272871b03b68f01782efdf7dec493c9c6bb07807d1881a4cd47da184"
	ejectGoldenDigest = "fd43ddd60fb2c9cbd2a3f54799f8b3c36e4d66869053d288775907c0a03f0ffe"
	hedgeGoldenDigest = "49cee29e7af4f541befb23fde313057cf2690ebfc6842af4a230afee48ca7ca2"
)

// ---------------------------------------------------------------------
// Reaching the state.

// goldenBackend is one backend's routing state as a golden sequence
// draws it.
type goldenBackend struct {
	ready, ejected, probeDue bool
	breaker                  int // index into goldenBreakers
	tc                       map[string]float64
	polled                   *polled
	inflight                 int64
}

// goldenBreakers are the three states a backend's breaker reports.
var goldenBreakers = [3]string{client.BreakerClosed, client.BreakerOpen, client.BreakerHalfOpen}

// goldenClients builds, for each breaker state, per clients whose
// breaker reports it: a closed one has seen no traffic; an open one has
// failed once at threshold 1 (the request's deadline has already passed,
// so nothing is dialled, and a deadline counts where a cancellation would
// not); a half-open one is an open one whose cooldown has passed.
func goldenClients(t *testing.T, per int) [3][]*client.Client {
	t.Helper()
	dead, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	var out [3][]*client.Client
	for state, cooldown := range [3]time.Duration{0, time.Hour, time.Nanosecond} {
		for i := 0; i < per; i++ {
			cl, err := client.New(client.Config{
				BaseURL: "http://127.0.0.1:1",
				Breaker: client.BreakerConfig{Threshold: 1, Cooldown: cooldown},
			})
			if err != nil {
				t.Fatal(err)
			}
			if state != 0 {
				_, _ = cl.Do(dead, http.MethodGet, "/", nil)
				time.Sleep(time.Microsecond)
			}
			if got := cl.BreakerState(); got != goldenBreakers[state] {
				t.Fatalf("breaker set-up: %q, want %q", got, goldenBreakers[state])
			}
			out[state] = append(out[state], cl)
		}
	}
	return out
}

// goldenGate is a gate without pollers or evaluator over the given
// backend states, on a clock that stands still. A due probe is one never
// granted; one that is not due was granted now, with an hour between
// probes.
func goldenGate(policy Policy, eject EjectConfig, rr uint64, clients [3][]*client.Client, states []goldenBackend) *Gate {
	now := time.Unix(1_000_000, 0)
	g := &Gate{
		cfg:          Config{Policy: policy, Alpha: 0.3, MaxAttempts: len(states), Eject: eject},
		weights:      resolveWeights(policy),
		log:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		now:          func() time.Time { return now },
		hedgeWindows: map[string]*latRing{},
	}
	g.rr.Store(rr)
	for i, s := range states {
		b := &backend{name: string(rune('a' + i)), cl: clients[s.breaker][i], ready: s.ready, polled: s.polled, table: map[string]classStat{}}
		b.ejected = s.ejected
		if !s.probeDue {
			b.lastProbe = now
		}
		for class, ms := range s.tc {
			b.table[class] = classStat{execMS: ms}
		}
		b.inflight.Store(s.inflight)
		g.backends = append(g.backends, b)
	}
	return g
}

// goldenPick is one routing decision: the chosen backend's name, "-"
// when every backend has been tried.
func goldenPick(g *Gate, class string, tried []bool) string {
	if b := g.pickUntried(class, tried); b != nil {
		return b.name
	}
	return "-"
}

func goldenFeedRTT(g *Gate, i int, class string, ms float64, censored bool) {
	g.learn(g.backends[i], class, 0, ms, censored)
}

func goldenSetReady(g *Gate, i int, ready bool) { g.backends[i].ready = ready }

func goldenEjected(g *Gate, i int) bool { return g.backends[i].ejected }

// goldenRTT is backend i's round-trip table: class → (EWMA ms, samples).
func goldenRTT(g *Gate, i int) map[string][2]float64 {
	out := map[string][2]float64{}
	for class, e := range g.backends[i].row().table {
		out[class] = [2]float64{e.rttMS, float64(e.rttN)}
	}
	return out
}

// ---------------------------------------------------------------------
// The sequences.

// TestPickGolden: 2,400 seeded cluster states of 2–9 backends (past
// stackBackends, so the heap scratch path runs too), three picks each —
// a primary, a re-route and a second primary, which finds any probe the
// first one took no longer due — under all three policy kinds and two
// scorer mixes, with the evaluator on and off.
func TestPickGolden(t *testing.T) {
	clients := goldenClients(t, 9)
	mixes := []map[string]float64{
		DefaultScorers(),
		{ScorerAffinity: 1, ScorerQueue: 4},
	}
	kinds := []string{PolicyWeighted, PolicyRoundRobin, PolicyLeastLoad}
	classes := []string{"heavy", "light"}
	r := rng.New(2012)
	h := sha256.New()
	picks := map[string]int{}
	for state := 0; state < 2400; state++ {
		n := 2 + r.Intn(8)
		policy := Policy{Kind: kinds[state%3], Weights: mixes[(state/3)%2]}
		eject := EjectConfig{Enabled: r.Intn(4) != 0, Probe: time.Hour}
		states := make([]goldenBackend, n)
		for i := range states {
			s := &states[i]
			s.ready = r.Intn(5) != 0
			s.ejected = r.Intn(4) == 0
			s.probeDue = r.Intn(2) == 0
			switch r.Intn(8) {
			case 0:
				s.breaker = 1
			case 1:
				s.breaker = 2
			}
			s.tc = map[string]float64{}
			for _, class := range classes {
				if r.Intn(3) != 0 {
					s.tc[class] = 1 + 99*r.Float64()
				}
			}
			if r.Intn(4) != 0 {
				s.polled = &polled{Workers: r.Intn(9), Queued: r.Intn(21), Inflight: r.Intn(11)}
				if r.Intn(2) == 0 {
					// The backend's own table: the cold-start seed for a
					// class the gate has not observed.
					s.polled.Classes = map[string]obs.ClassEWMA{classes[r.Intn(2)]: {ExecMS: 1 + 99*r.Float64()}}
				}
			}
			s.inflight = int64(r.Intn(13))
		}
		g := goldenGate(policy, eject, uint64(r.Intn(1000)), clients, states)
		class := classes[r.Intn(2)]
		tried := make([]bool, n)
		first := goldenPick(g, class, tried)
		for i := range tried {
			tried[i] = r.Intn(10) < 3
		}
		if r.Intn(16) == 0 {
			for i := range tried {
				tried[i] = true
			}
		}
		second := goldenPick(g, class, tried)
		third := goldenPick(g, class, make([]bool, n))
		fmt.Fprintf(h, "%d %s %s %s\n", state, first, second, third)
		picks[first]++
		picks[second]++
		if first != third {
			picks["probe-consumed"]++
		}
	}
	// The sequence must reach every backend position, the nothing-left
	// answer and a probe the first primary took from the second (round-robin
	// aside, nothing else makes two primaries over one state differ), or
	// the digest pins less than it says.
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "-", "probe-consumed"} {
		if picks[name] == 0 {
			t.Errorf("no pick ever counted as %q: %v", name, picks)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pickGoldenDigest {
		t.Errorf("pick digest %s, want %s", got, pickGoldenDigest)
	}
}

// TestEjectGolden: four backends, two classes, 6,000 seeded steps on a
// hand-advanced clock — round trips fed in (one in five censored), the
// evaluator run, a backend's readiness flipped — while backend c turns
// gray every other 600 steps and d every third 900, so that the two
// overlap and part. The digest covers every (time, backend, ejected | readmitted) transition
// and the final round-trip tables.
func TestEjectGolden(t *testing.T) {
	const n = 4
	eject := EjectConfig{Enabled: true, Factor: 3, Window: 200 * time.Millisecond, Probe: time.Hour, MinSamples: 5, RecoverFactor: 0.7}
	states := make([]goldenBackend, n)
	for i := range states {
		states[i] = goldenBackend{ready: true, probeDue: true}
	}
	g := goldenGate(Policy{Kind: PolicyWeighted, Weights: DefaultScorers()}, eject, 0, goldenClients(t, n), states)
	classes := []string{"heavy", "light"}
	base := map[string]float64{"heavy": 40, "light": 4}
	r := rng.New(1999)
	h := sha256.New()
	start := time.Unix(1_000_000, 0)
	now := start
	const steps = 6000
	ejections, readmissions := 0, 0
	for step := 0; step < steps; step++ {
		switch k := r.Intn(20); {
		case k < 15:
			i, class := r.Intn(n), classes[r.Intn(2)]
			ms := base[class] * (0.5 + r.Float64())
			if (i == 2 && (step/600)%2 == 1) || (i == 3 && (step/900)%3 == 1) {
				ms *= 12
			}
			goldenFeedRTT(g, i, class, ms, r.Intn(5) == 0)
		case k < 19:
			now = now.Add(time.Duration(10+r.Intn(50)) * time.Millisecond)
			var before [n]bool
			for i := range before {
				before[i] = goldenEjected(g, i)
			}
			g.ejectOnce(now)
			for i := range before {
				if after := goldenEjected(g, i); after != before[i] {
					what := "readmitted"
					if after {
						what = "ejected"
						ejections++
					} else {
						readmissions++
					}
					fmt.Fprintf(h, "%d %s %s\n", now.Sub(start).Milliseconds(), g.backends[i].name, what)
				}
			}
		default:
			goldenSetReady(g, r.Intn(n), r.Intn(3) != 0)
		}
	}
	if ejections < 4 || readmissions < 4 {
		t.Errorf("%d ejections and %d readmissions: the sequence no longer exercises the evaluator", ejections, readmissions)
	}
	for i := 0; i < n; i++ {
		table := goldenRTT(g, i)
		for _, class := range classes {
			e := table[class]
			fmt.Fprintf(h, "%s %s %x %d\n", g.backends[i].name, class, math.Float64bits(e[0]), int64(e[1]))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ejectGoldenDigest {
		t.Errorf("eject digest %s (%d ejections, %d readmissions), want %s", got, ejections, readmissions, ejectGoldenDigest)
	}
}

// TestHedgeDelayGolden: the hedge delay after each of 0…300 samples of a
// class's window (the ring holds 128, so it wraps), under two
// configurations, against the clamp table first.
func TestHedgeDelayGolden(t *testing.T) {
	gateWith := func(h HedgeConfig) *Gate {
		g := goldenGate(Policy{Kind: PolicyRoundRobin}, EjectConfig{}, 0, [3][]*client.Client{}, nil)
		g.cfg.Hedge = h
		return g
	}
	wide := HedgeConfig{Enabled: true, Quantile: 0.95, MinDelay: 5 * time.Millisecond, MaxDelay: time.Second}
	for _, row := range []struct {
		name    string
		samples int
		ms      float64
		want    time.Duration
	}{
		{"no sample: MaxDelay", 0, 0, time.Second},
		{"one short of minHedgeSamples: MaxDelay", minHedgeSamples - 1, 20, time.Second},
		{"enough samples: the quantile", minHedgeSamples, 20, 20 * time.Millisecond},
		{"below the floor: MinDelay", 40, 0.5, 5 * time.Millisecond},
		{"above the cap: MaxDelay", 200, 4000, time.Second},
		{"non-positive samples are not recorded", 40, -1, time.Second},
	} {
		g := gateWith(wide)
		for i := 0; i < row.samples; i++ {
			g.recordLat("w", row.ms)
		}
		if got := g.hedgeDelay("w"); got != row.want {
			t.Errorf("%s: %v, want %v", row.name, got, row.want)
		}
	}

	h := sha256.New()
	for _, cfg := range []HedgeConfig{wide, {Enabled: true, Quantile: 0.5, MinDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond}} {
		g := gateWith(cfg)
		r := rng.New(uint64(cfg.MaxDelay))
		for n := 0; n <= 300; n++ {
			fmt.Fprintf(h, "%d %d %d\n", n, g.hedgeDelay("heavy"), g.hedgeDelay("never-seen"))
			ms := 20 * r.ExpFloat64()
			switch r.Intn(10) {
			case 0:
				ms /= 100 // under either floor
			case 1:
				ms *= 100 // over either cap
			}
			g.recordLat("heavy", ms)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != hedgeGoldenDigest {
		t.Errorf("hedge delay digest %s, want %s", got, hedgeGoldenDigest)
	}
}
