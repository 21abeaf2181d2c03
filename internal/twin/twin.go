// Package twin is the counterfactual engine behind cmd/watstwin: it
// replays one captured live trace (the decision ledger's NDJSON, see
// internal/trace) through the discrete-event simulator under every
// scheduling policy the live runtime accepts, and reports how each would
// have handled the exact traffic the live service saw — p99/mean sojourn
// and energy deltas against the live baseline, plus a twin-fidelity line
// (simulated vs live p99 under the *actual* policy) that says how far to
// trust the counterfactuals.
package twin

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"wats/internal/amc"
	"wats/internal/report"
	"wats/internal/sched"
	"wats/internal/sim"
	"wats/internal/trace"
	"wats/internal/workload"
)

// Options configures a twin run.
type Options struct {
	// Seed seeds every simulator run (one fixed seed = byte-identical
	// reports for the same capture).
	Seed uint64
	// Sweep adds WATS helper-period and EWMA parameter variants beyond
	// the six live policy kinds.
	Sweep bool
}

// Variant is one counterfactual to simulate: a policy kind at a helper
// period, optionally with the EWMA history extension.
type Variant struct {
	Label        string
	Kind         sched.Kind
	HelperPeriod float64 // seconds
	EWMAAlpha    float64 // 0 = cumulative mean (Algorithm 2 verbatim)
}

// Row is one ranked line of the report: a simulated variant and its
// deltas vs the live run. Latency deltas compare simulated sojourns with
// the live ledger's; the energy delta compares against the simulated
// baseline variant (the live policy's replay), since the live footer's
// energy covers the whole serve window, not just the captured tasks.
type Row struct {
	Policy         string  `json:"policy"`
	HelperPeriodMS float64 `json:"helper_period_ms"`
	EWMAAlpha      float64 `json:"ewma_alpha,omitempty"`
	P99MS          float64 `json:"p99_ms"`
	MeanMS         float64 `json:"mean_ms"`
	MakespanS      float64 `json:"makespan_s"`
	EnergyJ        float64 `json:"energy_j"`
	Steals         int     `json:"steals"`
	DeltaP99Pct    float64 `json:"delta_p99_pct"`
	DeltaMeanPct   float64 `json:"delta_mean_pct"`
	DeltaEnergyPct float64 `json:"delta_energy_pct"`
	// Baseline marks the live policy's own replay — the fidelity anchor
	// and the energy-delta reference.
	Baseline bool `json:"baseline,omitempty"`
}

// Report is the deterministic twin report: everything derives from the
// capture, the seed and the code — no wall clock, no map iteration, so
// the same inputs yield byte-identical JSON and markdown.
type Report struct {
	Trace      string `json:"trace"`
	LivePolicy string `json:"live_policy"`
	Arch       string `json:"arch"`
	Seed       uint64 `json:"seed"`
	// Tasks replayed and records skipped (cancelled or unmatched), plus
	// live-side capture drops — the coverage caveats.
	Tasks       int     `json:"tasks"`
	Skipped     int     `json:"skipped"`
	DroppedLive uint64  `json:"dropped_live"`
	LiveP99MS   float64 `json:"live_p99_ms"`
	LiveMeanMS  float64 `json:"live_mean_ms"`
	LiveEnergyJ float64 `json:"live_energy_j,omitempty"`
	// FidelityPct is |simulated p99 - live p99| / live p99 for the live
	// policy's own replay, in percent: the twin's error bar.
	FidelityPct float64 `json:"fidelity_pct"`
	// Best is the top-ranked (lowest simulated p99) variant.
	Best string `json:"best"`
	Rows []Row  `json:"rows"`
}

// Variants returns the counterfactual set for a capture: the six kinds the
// live service could switch to (sched.LiveKinds) at the live helper
// period, plus (with sweep) WATS helper-period and EWMA variants.
func Variants(h trace.CaptureHeader, sweep bool) []Variant {
	hp := float64(h.HelperPeriodNS) / 1e9
	if hp <= 0 {
		hp = 1e-3
	}
	var vs []Variant
	for _, k := range sched.LiveKinds() {
		vs = append(vs, Variant{Label: string(k), Kind: k, HelperPeriod: hp})
	}
	if sweep {
		vs = append(vs,
			Variant{Label: "WATS hp=0.25ms", Kind: sched.KindWATS, HelperPeriod: 0.25e-3},
			Variant{Label: "WATS hp=4ms", Kind: sched.KindWATS, HelperPeriod: 4e-3},
			Variant{Label: "WATS ewma=0.2", Kind: sched.KindWATS, HelperPeriod: hp, EWMAAlpha: 0.2},
			Variant{Label: "WATS ewma=0.5", Kind: sched.KindWATS, HelperPeriod: hp, EWMAAlpha: 0.5},
		)
	}
	return vs
}

// archOf rebuilds the live architecture from the capture header.
func archOf(h trace.CaptureHeader) (*amc.Arch, error) {
	if len(h.GroupCounts) == 0 || len(h.GroupCounts) != len(h.GroupFreqs) {
		return nil, fmt.Errorf("twin: capture header has a bad architecture (%d counts, %d freqs)",
			len(h.GroupCounts), len(h.GroupFreqs))
	}
	groups := make([]amc.CGroup, len(h.GroupCounts))
	for i := range h.GroupCounts {
		groups[i] = amc.CGroup{Freq: h.GroupFreqs[i], N: h.GroupCounts[i]}
	}
	return amc.New("twin", groups...)
}

func policyOf(v Variant) (sim.Policy, error) {
	if v.EWMAAlpha > 0 {
		w := sched.NewWATS()
		w.EWMAAlpha = v.EWMAAlpha
		w.SetName(v.Label)
		return w, nil
	}
	if v.Label != string(v.Kind) {
		// A swept WATS variant: build directly so the label sticks.
		w := sched.NewWATS()
		w.SetName(v.Label)
		return w, nil
	}
	return sched.New(v.Kind)
}

// quantile returns the q-quantile of sorted-ascending xs using the
// ceil-rank convention — the same formula for live and simulated
// sojourns, so the fidelity comparison is apples to apples.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveSojourns extracts the live per-task sojourn times (end minus
// decision timestamp, seconds) for completed tasks.
func liveSojourns(c *trace.Captured) []float64 {
	ends := make(map[uint64]*trace.TaskEnd, len(c.Ends))
	for i := range c.Ends {
		ends[c.Ends[i].ID] = &c.Ends[i]
	}
	var out []float64
	for _, d := range c.Decisions {
		if e, ok := ends[d.ID]; ok && !e.Cancelled && e.End >= d.TS {
			out = append(out, float64(e.End-d.TS)/1e9)
		}
	}
	return out
}

// round keeps reports stable and readable: every float in the report is
// rounded to 3 decimals before marshalling.
func round(v float64) float64 { return math.Round(v*1000) / 1000 }

func deltaPct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return round((v - base) / base * 100)
}

// Run replays the capture under every variant and assembles the report.
func Run(name string, c *trace.Captured, opts Options) (*Report, error) {
	arch, err := archOf(c.Header)
	if err != nil {
		return nil, err
	}
	live := liveSojourns(c)
	if len(live) == 0 {
		return nil, fmt.Errorf("twin: capture %q has no completed tasks to replay", name)
	}
	sort.Float64s(live)
	liveP99 := quantile(live, 0.99)
	liveMean := mean(live)

	rep := &Report{
		Trace:      name,
		LivePolicy: c.Header.Policy,
		Arch:       arch.String(),
		Seed:       opts.Seed,
		LiveP99MS:  round(liveP99 * 1e3),
		LiveMeanMS: round(liveMean * 1e3),
	}
	if c.Footer != nil {
		rep.LiveEnergyJ = round(c.Footer.EnergyJoules)
		rep.DroppedLive = c.Footer.Dropped
	}

	for _, v := range Variants(c.Header, opts.Sweep) {
		pol, err := policyOf(v)
		if err != nil {
			return nil, err
		}
		// Fresh arch and workload per run: the engine mutates tasks and a
		// strategy is single-use.
		a, err := archOf(c.Header)
		if err != nil {
			return nil, err
		}
		ol, skipped, err := workload.FromCapture(name, c)
		if err != nil {
			return nil, err
		}
		rep.Tasks = len(ol.Arrivals)
		rep.Skipped = skipped
		eng := sim.New(a, pol, sim.Config{
			Seed:         opts.Seed,
			HelperPeriod: v.HelperPeriod,
			CollectTasks: true,
		})
		res, err := eng.Run(ol)
		if err != nil {
			return nil, fmt.Errorf("twin: replay under %s: %w", v.Label, err)
		}
		soj := ol.Sojourns(res.Completed)
		sort.Float64s(soj)
		p99 := quantile(soj, 0.99)
		row := Row{
			Policy:         v.Label,
			HelperPeriodMS: round(v.HelperPeriod * 1e3),
			EWMAAlpha:      v.EWMAAlpha,
			P99MS:          round(p99 * 1e3),
			MeanMS:         round(mean(soj) * 1e3),
			MakespanS:      round(res.Makespan),
			EnergyJ:        round(res.EnergyJoules),
			Steals:         res.Steals,
			DeltaP99Pct:    deltaPct(p99, liveP99),
			DeltaMeanPct:   deltaPct(mean(soj), liveMean),
			Baseline:       v.Label == c.Header.Policy && v.EWMAAlpha == 0,
		}
		rep.Rows = append(rep.Rows, row)
	}

	// Energy deltas are sim-vs-sim: the baseline variant's simulated
	// energy is the reference (the live footer's joules cover the whole
	// serve window, not only the captured tasks).
	baseEnergy := rep.Rows[0].EnergyJ
	for _, r := range rep.Rows {
		if r.Baseline {
			baseEnergy = r.EnergyJ
			rep.FidelityPct = round(math.Abs(r.P99MS-rep.LiveP99MS) / rep.LiveP99MS * 100)
		}
	}
	for i := range rep.Rows {
		rep.Rows[i].DeltaEnergyPct = deltaPct(rep.Rows[i].EnergyJ, baseEnergy)
	}

	sort.SliceStable(rep.Rows, func(i, j int) bool {
		if rep.Rows[i].P99MS != rep.Rows[j].P99MS {
			return rep.Rows[i].P99MS < rep.Rows[j].P99MS
		}
		return rep.Rows[i].Policy < rep.Rows[j].Policy
	})
	rep.Best = rep.Rows[0].Policy
	return rep, nil
}

// JSON renders the report as stable, indented JSON (struct field order +
// rounded floats = byte-identical for identical inputs).
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Markdown renders the ranked report for humans.
func (r *Report) Markdown() string {
	t := report.NewTable(
		fmt.Sprintf("Digital twin: %s on %s (live policy %s, seed %d)", r.Trace, r.Arch, r.LivePolicy, r.Seed),
		"policy", "helper", "p99 ms", "Δp99", "mean ms", "Δmean", "energy J", "Δenergy", "steals")
	for _, row := range r.Rows {
		label := row.Policy
		if row.Baseline {
			label += " *"
		}
		t.AddRow(label,
			(time.Duration(row.HelperPeriodMS * float64(time.Millisecond))).String(),
			fmt.Sprintf("%.3f", row.P99MS),
			fmt.Sprintf("%+.1f%%", row.DeltaP99Pct),
			fmt.Sprintf("%.3f", row.MeanMS),
			fmt.Sprintf("%+.1f%%", row.DeltaMeanPct),
			fmt.Sprintf("%.1f", row.EnergyJ),
			fmt.Sprintf("%+.1f%%", row.DeltaEnergyPct),
			fmt.Sprintf("%d", row.Steals),
		)
	}
	md := t.Markdown()
	md += fmt.Sprintf("\n`*` live baseline policy. Latency deltas vs the live ledger (p99 %.3f ms, mean %.3f ms); energy deltas vs the baseline replay.\n",
		r.LiveP99MS, r.LiveMeanMS)
	md += fmt.Sprintf("\n- **best policy**: %s\n- **twin fidelity**: simulated p99 within %.1f%% of live under %s\n- replayed %d tasks (%d records skipped, %d live drops)\n",
		r.Best, r.FidelityPct, r.LivePolicy, r.Tasks, r.Skipped, r.DroppedLive)
	if r.LiveEnergyJ > 0 {
		md += fmt.Sprintf("- live serve-window energy: %.1f J (context only; sim energy covers captured tasks)\n", r.LiveEnergyJ)
	}
	return md
}
