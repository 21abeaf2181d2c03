package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"wats/internal/stats"
)

// readResults groups the runs of one results file: workload, then
// metric, then that metric over the file's runs. End-to-end metrics are
// taken from untraced runs only and per-layer metrics from traced ones.
func readResults(path string, man *manifest) (map[string]map[string][]metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	endToEnd := map[string]bool{}
	for _, d := range man.EndToEnd {
		endToEnd[d.Name] = true
	}
	out := map[string]map[string][]metric{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]metric{}
		}
		for name, m := range r.Metrics {
			if endToEnd[name] != r.Trace {
				out[r.Workload][name] = append(out[r.Workload][name], m)
			}
		}
	}
	return out, sc.Err()
}

// spread is how far a metric's readings lie apart, as a share of their
// median: between runs when a side has several, otherwise between the
// windows of its one run (first to third quartile).
func spread(runs []metric) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Value
	}
	if len(runs) == 1 {
		xs = runs[0].Windows
		if len(xs) < 2 {
			return 0
		}
		return (stats.Quantile(xs, 0.75) - stats.Quantile(xs, 0.25)) / median(xs)
	}
	return (stats.Max(xs) - stats.Min(xs)) / median(xs)
}

func medianOf(runs []metric) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Value
	}
	return median(xs)
}

// verdict applies a bound to one metric on one workload. worse is the
// change from a to b as a share of a, positive when b is worse; noise is
// the larger of the two sides' spreads. A change counts only when it
// exceeds the noise; noise wider than the bound leaves the metric
// unresolved unless every run of b reads better than every run of a.
func verdict(d metricDecl, a, b []metric) (worse, noise float64, v string) {
	ma, mb := medianOf(a), medianOf(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * (mb - ma) / ma
	noise = max(spread(a), spread(b))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y.Value-x.Value) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > d.Bound && worse > noise:
		v = "worse"
	case noise > d.Bound && allBetter:
		v = "better"
	case noise > d.Bound:
		v = "unresolved"
	case -worse > noise:
		v = "better"
	default:
		v = "unchanged"
	}
	return worse, noise, v
}

// compareFiles prints, for every workload and end-to-end metric both
// files hold, the base value, the new value, the change, the bound and
// the verdict — each workload in its own row, every ratio next to its
// base. Per-layer metrics have no bound; they are listed with their
// change only, as the place to look for where a change sits.
func compareFiles(w io.Writer, man *manifest, pathA, pathB string) error {
	a, err := readResults(pathA, man)
	if err != nil {
		return err
	}
	b, err := readResults(pathB, man)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tnew\tchange\tbound\tspread\truns\tverdict")
	counts := map[string]int{}
	row := func(wl string, d metricDecl, bounded bool) {
		ra, rb := a[wl][d.Name], b[wl][d.Name]
		if len(ra) == 0 || len(rb) == 0 {
			return
		}
		ma, mb := medianOf(ra), medianOf(rb)
		if !bounded && ra[0].N == 0 && rb[0].N == 0 {
			return // the layer does not run in this workload
		}
		if !bounded {
			change := "n/a"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%s\t-\t-\t%d/%d\tinfo\n",
				wl, d.Name, ma, d.Unit, mb, d.Unit, change, len(ra), len(rb))
			return
		}
		worse, noise, v := verdict(d, ra, rb)
		counts[v]++
		dir := "worse"
		if worse < 0 {
			dir = "better"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%.1f%% %s\t%.0f%%\t%.1f%%\t%d/%d\t%s\n",
			wl, d.Name, ma, d.Unit, mb, d.Unit, 100*math.Abs(worse), dir, 100*d.Bound, 100*noise, len(ra), len(rb), v)
	}
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			row(wl.Name, d, true)
		}
	}
	for _, wl := range man.Workloads {
		for _, d := range man.PerLayer {
			row(wl.Name, d, false)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "end-to-end: %d better, %d unchanged, %d worse, %d unresolved\n",
		counts["better"], counts["unchanged"], counts["worse"], counts["unresolved"])
	return err
}
