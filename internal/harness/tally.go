package harness

import (
	"net/http"
	"slices"
	"time"
)

// Tally is a load driver's ledger over some set of jobs, with the
// latency of those that came back 200. Steady p99 covers the ones sent
// outside their phase's ramp. It marshals as a per-class block of
// BENCH_gate.json.
type Tally struct {
	Sent        int     `json:"sent"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	Failed      int     `json:"failed"`
	P50Ms       float64 `json:"p50_ms"`
	P99Ms       float64 `json:"p99_ms"`
	SteadyP99Ms float64 `json:"steady_p99_ms"`
	MaxMs       float64 `json:"max_ms"`
}

// Window is the part of a Tally that BENCH_chaos.json keeps for a time
// slice of a run.
type Window struct {
	Sent  int     `json:"sent"`
	OK    int     `json:"ok"`
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// Window narrows t to its Window fields.
func (t Tally) Window() Window { return Window{t.Sent, t.OK, t.P50Ms, t.P99Ms, t.MaxMs} }

// Fold tallies the samples keep accepts (nil = all): 200 is OK, 429 is
// shed, anything else failed.
func Fold(samples []Sample, keep func(Sample) bool) Tally {
	var t Tally
	var ok, steady []time.Duration
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		t.Sent++
		switch s.Code {
		case http.StatusOK:
			t.OK++
			ok = append(ok, s.Lat)
			if s.Steady {
				steady = append(steady, s.Lat)
			}
		case http.StatusTooManyRequests:
			t.Shed++
		default:
			t.Failed++
		}
	}
	t.SetLatencies(ok, steady)
	return t
}

// SetLatencies fills the latency fields from the OK jobs' latencies and
// the steady subset of them, sorting both in place.
func (t *Tally) SetLatencies(ok, steady []time.Duration) {
	slices.Sort(ok)
	slices.Sort(steady)
	t.P50Ms = quantileMs(ok, 0.50)
	t.P99Ms = quantileMs(ok, 0.99)
	t.MaxMs = quantileMs(ok, 1)
	t.SteadyP99Ms = quantileMs(steady, 0.99)
}

// quantileMs is the one percentile rule of every artifact: element
// int(q*(n-1)) of the sorted latencies, in milliseconds at microsecond
// resolution. An empty set reads 0.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return Round3(float64(sorted[int(q*float64(len(sorted)-1))].Microseconds()) / 1000)
}

// Round3 rounds a non-negative ratio or millisecond figure to three
// decimals, the precision the artifacts carry.
func Round3(x float64) float64 { return float64(int(x*1000+0.5)) / 1000 }
