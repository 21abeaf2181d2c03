package gate

import (
	"io"
	"log/slog"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"wats/internal/client"
)

// The policy core on literal snapshots: no Gate, no server, no clock but
// the instants written here.

const (
	closed   = client.BreakerClosed
	open     = client.BreakerOpen
	halfOpen = client.BreakerHalfOpen
)

func TestChoose(t *testing.T) {
	stock := resolveWeights(Policy{Weights: DefaultScorers()})
	up := view{ready: true, breaker: closed}
	for _, row := range []struct {
		name      string
		w         weights
		kind      string
		views     []view
		tried     []bool
		rr        uint64
		want      int
		wantProbe bool
	}{
		{name: "lowest TC wins, listed last",
			w: stock, kind: PolicyWeighted, want: 2,
			views: []view{{ready: true, breaker: closed, tc: 40}, {ready: true, breaker: closed, tc: 25}, {ready: true, breaker: closed, tc: 10}}},
		{name: "an unknown class beats the incumbent's 1.0 by the 1.05 optimism",
			w: stock, kind: PolicyWeighted, want: 1,
			views: []view{{ready: true, breaker: closed, tc: 10}, up}},
		{name: "the optimism is not enough against an idle incumbent when the newcomer is loaded",
			w: stock, kind: PolicyWeighted, want: 0,
			views: []view{{ready: true, breaker: closed, tc: 10}, {ready: true, breaker: closed, load: 1}}},
		{name: "a tie goes to configuration order",
			w: stock, kind: PolicyWeighted, want: 0,
			views: []view{up, up, up}},
		{name: "half-open scores half the health weight: it loses the tie",
			w: stock, kind: PolicyWeighted, want: 1,
			views: []view{{ready: true, breaker: halfOpen}, up}},
		{name: "half-open is routable: it wins over an open breaker",
			w: stock, kind: PolicyWeighted, want: 1,
			views: []view{{ready: true, breaker: open}, {ready: true, breaker: halfOpen}}},
		{name: "a scorer with no weight is not consulted",
			w: weights{queue: 1}, kind: PolicyWeighted, want: 1,
			views: []view{{ready: true, breaker: closed, tc: 1, load: 3}, {ready: true, breaker: closed, tc: 100, load: 2}}},
		{name: "tried backends are skipped",
			w: stock, kind: PolicyWeighted, want: 1, tried: []bool{true, false},
			views: []view{up, up}},
		{name: "everything tried: none",
			w: stock, kind: PolicyWeighted, want: -1, tried: []bool{true, true},
			views: []view{up, up}},
		{name: "ladder rung 1: a non-ejected routable backend beats an ejected one with a better TC",
			w: stock, kind: PolicyWeighted, want: 1,
			views: []view{{ready: true, breaker: closed, ejected: true, tc: 1}, {ready: true, breaker: closed, tc: 50}}},
		{name: "ladder rung 2: only ejected backends are routable",
			w: stock, kind: PolicyWeighted, want: 1,
			views: []view{{breaker: closed}, {ready: true, breaker: closed, ejected: true}}},
		{name: "ladder rung 3: nobody is routable, someone must carry the probe",
			w: stock, kind: PolicyWeighted, want: 0,
			views: []view{{breaker: closed}, {ready: true, breaker: open}}},
		{name: "a due probe is forced on a primary pick",
			w: stock, kind: PolicyWeighted, want: 1, wantProbe: true,
			views: []view{up, {ready: true, breaker: closed, ejected: true, probeDue: true, tc: 900}}},
		{name: "the first due probe in configuration order",
			w: stock, kind: PolicyRoundRobin, rr: 5, want: 0, wantProbe: true,
			views: []view{{ready: true, breaker: closed, ejected: true, probeDue: true}, {ready: true, breaker: closed, ejected: true, probeDue: true}, up}},
		{name: "no probe on a re-route",
			w: stock, kind: PolicyWeighted, want: 2, tried: []bool{true, false, false},
			views: []view{up, {ready: true, breaker: closed, ejected: true, probeDue: true}, up}},
		{name: "no probe to an unroutable backend",
			w: stock, kind: PolicyWeighted, want: 0,
			views: []view{up, {ready: true, breaker: open, ejected: true, probeDue: true}}},
		{name: "round-robin takes the cursor modulo the eligible set, not the cluster",
			w: stock, kind: PolicyRoundRobin, rr: 3, want: 2,
			views: []view{up, {breaker: closed}, up}},
		{name: "least-loaded takes the first minimum",
			w: stock, kind: PolicyLeastLoad, want: 1,
			views: []view{{ready: true, breaker: closed, load: 5}, {ready: true, breaker: closed, load: 1}, {ready: true, breaker: closed, load: 1}}},
		{name: "tried may be longer than the cluster (a caller's stack array)",
			w: stock, kind: PolicyWeighted, want: 1, tried: []bool{true, false, false, false},
			views: []view{up, up}},
	} {
		tried := row.tried
		if tried == nil {
			tried = make([]bool, len(row.views))
		}
		if got, probe := choose(row.w, row.kind, row.views, tried, row.rr); got != row.want || probe != row.wantProbe {
			t.Errorf("%s: chose %d (probe %v), want %d (probe %v)", row.name, got, probe, row.want, row.wantProbe)
		}
	}

	// More backends than stackBackends: the eligible set outgrows its
	// stack array and the choice is still the argmin.
	many := make([]view, stackBackends+3)
	for i := range many {
		many[i] = view{ready: true, breaker: closed, tc: float64(100 - i)}
	}
	if got, _ := choose(stock, PolicyWeighted, many, make([]bool, len(many)), 0); got != len(many)-1 {
		t.Errorf("%d backends: chose %d, want the last and fastest", len(many), got)
	}
}

func TestEjectStep(t *testing.T) {
	cfg := EjectConfig{Enabled: true, Factor: 3, Window: 50 * time.Millisecond, MinSamples: 3, RecoverFactor: 0.7}
	t0 := time.Unix(1_000_000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rtt := func(ms float64, n int64) map[string]classStat { return map[string]classStat{"w": {rttMS: ms, rttN: n}} }
	up := func(ms float64, st ejectState) row {
		return row{ready: true, breaker: closed, table: rtt(ms, 6), ejectState: st}
	}
	for _, c := range []struct {
		name string
		rows []row
		now  time.Time
		want []transition
	}{
		{name: "an excess starts the sustain clock",
			rows: []row{up(10, ejectState{}), up(10, ejectState{}), up(100, ejectState{})}, now: at(0),
			want: []transition{{idx: 2, to: ejectState{exceedSince: at(0)}, ratio: 10}}},
		{name: "inside the window nothing changes",
			rows: []row{up(10, ejectState{}), up(10, ejectState{}), up(100, ejectState{exceedSince: at(0)})}, now: at(49)},
		{name: "at the window the outlier is ejected, its clock kept",
			rows: []row{up(10, ejectState{}), up(10, ejectState{}), up(100, ejectState{exceedSince: at(0)})}, now: at(50),
			want: []transition{{idx: 2, to: ejectState{ejected: true, exceedSince: at(0)}, ratio: 10}}},
		{name: "an excess that ends resets the clock",
			rows: []row{up(10, ejectState{}), up(10, ejectState{}), up(29, ejectState{exceedSince: at(0)})}, now: at(60),
			want: []transition{{idx: 2, to: ejectState{}, ratio: 2.9}}},
		{name: "two backends: the lower median compares the slow one with the fast one",
			rows: []row{up(10, ejectState{}), up(40, ejectState{exceedSince: at(0)})}, now: at(50),
			want: []transition{{idx: 1, to: ejectState{ejected: true, exceedSince: at(0)}, ratio: 4}}},
		{name: "below MinSamples a backend neither counts towards the median nor is judged",
			rows: []row{up(10, ejectState{}), up(10, ejectState{}), {ready: true, breaker: closed, table: rtt(100, 2)}}, now: at(0)},
		{name: "a single estimate has no cluster to deviate from",
			rows: []row{up(100, ejectState{}), {ready: true, breaker: closed, table: rtt(1, 1)}}, now: at(0)},
		{name: "the last routable backend is spared: its peer is not ready",
			rows: []row{{breaker: closed, table: rtt(10, 6)}, up(200, ejectState{exceedSince: at(0)})}, now: at(50)},
		{name: "the last routable backend is spared: its peer's breaker is open",
			rows: []row{{ready: true, breaker: open, table: rtt(10, 6)}, up(200, ejectState{exceedSince: at(0)})}, now: at(50)},
		{name: "an ejection earlier in the pass counts: of two outliers with one healthy peer gone, only the first goes",
			rows: []row{up(100, ejectState{exceedSince: at(0)}), up(100, ejectState{exceedSince: at(0)}), {breaker: closed, table: rtt(10, 6)}, {breaker: closed, table: rtt(10, 6)}}, now: at(50),
			want: []transition{{idx: 0, to: ejectState{ejected: true, exceedSince: at(0)}, ratio: 10}}},
		{name: "an ejected backend stays out above Factor x RecoverFactor",
			rows: []row{up(10, ejectState{}), up(10, ejectState{}), up(21, ejectState{ejected: true, exceedSince: at(0)})}, now: at(500)},
		{name: "and is re-admitted below it, its clock cleared",
			rows: []row{up(10, ejectState{}), up(10, ejectState{}), up(20.9, ejectState{ejected: true, exceedSince: at(0)})}, now: at(500),
			want: []transition{{idx: 2, to: ejectState{}, ratio: 2.09}}},
		{name: "with no ratio to go by it stays out",
			rows: []row{up(10, ejectState{}), {ready: true, breaker: closed, table: rtt(5, 1), ejectState: ejectState{ejected: true}}}, now: at(500)},
	} {
		if got := ejectStep(cfg, c.rows, c.now); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

func TestHedgeDelayOf(t *testing.T) {
	h := HedgeConfig{Enabled: true, Quantile: 0.95, MinDelay: 5 * time.Millisecond, MaxDelay: time.Second}
	ramp := func(n int, step float64) (w [hedgeWindow]float64) {
		for i := 0; i < n; i++ {
			w[(n-1-i)%hedgeWindow] = float64(i+1) * step // written newest-first: the order must not matter
		}
		return w
	}
	for _, row := range []struct {
		name   string
		window [hedgeWindow]float64
		n      int
		want   time.Duration
	}{
		{"cold: MaxDelay", ramp(0, 1), 0, time.Second},
		{"one short of minHedgeSamples: MaxDelay", ramp(15, 1), 15, time.Second},
		{"16 samples 10..160 ms: index int(0.95 x 15) = 14", ramp(16, 10), 16, 150 * time.Millisecond},
		{"a full window 1..128 ms: index int(0.95 x 127) = 120", ramp(128, 1), 128, 121 * time.Millisecond},
		{"n past the window counts the 128 retained", ramp(128, 1), 300, 121 * time.Millisecond},
		{"under the floor: MinDelay", ramp(64, 0.01), 64, 5 * time.Millisecond},
		{"over the cap: MaxDelay", ramp(64, 100), 64, time.Second},
	} {
		before := row.window
		if got := hedgeDelayOf(h, row.window, row.n); got != row.want {
			t.Errorf("%s: %v, want %v", row.name, got, row.want)
		}
		if row.window != before {
			t.Errorf("%s: the caller's window was reordered", row.name)
		}
	}
}

// TestRoutingStateUnderRace hammers three backends' routing state from
// every kind of goroutine that touches it — pickers, learners, a poller
// committing polls, the eject evaluator, the exporters — for a fixed
// number of iterations, under -race in CI. Whatever the interleaving,
// what a goroutine copies out is a state some writer wrote whole: a pick
// is a backend that was routable in the views it was chosen from.
func TestRoutingStateUnderRace(t *testing.T) {
	const probe = time.Millisecond
	g := ejectEnv(t, 3, EjectConfig{Enabled: true, Factor: 3, Window: time.Millisecond, Probe: probe, MinSamples: 3, RecoverFactor: 0.7})
	g.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	const iters = 2000
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f(i)
			}
		}()
	}
	triedAt := func(i int) []bool { return []bool{i%4 == 1, i%4 == 2, i%4 == 3} } // at most one
	for p := 0; p < 2; p++ {
		run(func(i int) { // picker, through the commit path
			tried := triedAt(i)
			if b := g.pickUntried("w", tried); b == nil || tried[slices.Index(g.backends, b)] {
				t.Errorf("pick with tried %v chose %v", tried, b)
			}
		})
		run(func(i int) { // picker, snapshot and pure call by hand
			tried, views, anyRoutable := triedAt(i), make([]view, 3), false
			for j, b := range g.backends {
				views[j] = b.view("w", probe, time.Now())
				anyRoutable = anyRoutable || (!tried[j] && views[j].routable())
			}
			idx, _ := choose(g.weights, PolicyWeighted, views, tried, 0)
			if idx < 0 || tried[idx] || (anyRoutable && !views[idx].routable()) {
				t.Errorf("chose %d with tried %v from %+v", idx, tried, views)
			}
			if v := views[i%3]; v.probeDue && !v.ejected {
				t.Errorf("a probe due on a backend in rotation: %+v", v)
			}
		})
		run(func(i int) { // learner: 4 ms of exec everywhere, c ten times slower to answer
			g.learn(g.backends[i%3], "w", 4, []float64{10, 10, 100}[i%3], i%5 == 0)
		})
	}
	run(func(i int) { // poller: readiness and a fresh stats snapshot
		b := g.backends[i%3]
		b.mu.Lock()
		b.ready = i%7 != 0
		b.polled = &polled{Workers: 1 + i%4, Queued: i % 9, Inflight: i % 5}
		b.mu.Unlock()
	})
	run(func(i int) { g.ejectOnce(time.Now()) }) // evaluator
	run(func(i int) {                            // exporter
		for _, s := range g.Snapshot() {
			if tc, ok := s.TC["w"]; ok && math.Abs(tc-4) > 1e-9 {
				t.Errorf("backend %s: TC %v is no value a learner wrote", s.Name, tc)
			}
		}
	})
	wg.Wait()

	// Two closing passes a window apart, in case the evaluator ran ahead
	// of the learners: c answers ten times slower than the median and
	// every backend ended ready, so c is out and nobody else ever was.
	now := time.Now()
	g.ejectOnce(now)
	g.ejectOnce(now.Add(time.Second))
	if snap := g.Snapshot(); !snap[2].Ejected || snap[0].Ejections+snap[1].Ejections != 0 {
		t.Errorf("after the run: %+v", snap)
	}
}
