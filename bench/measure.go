package main

import (
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"wats/internal/stats"
)

// metric is one reported number. When Windows is set, Value is the best
// of the per-window values; N is the number of samples (jobs, runs,
// iterations) behind the value.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Windows []float64 `json:"windows,omitempty"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (ms metricSet) put(name string, v float64, unit string, n int) {
	ms[name] = metric{Value: v, Unit: unit, N: n}
}

// putWindows reports the best of per-window values: the highest when
// higher is better, else the lowest. A neighbour on a shared machine only
// ever slows a window down, so the best window is the one nearest to what
// the program does undisturbed: over ten runs it repeated within 2% where
// the median of the same windows moved by 12% (README.md, "Why the best
// window").
func (ms metricSet) putWindows(name string, windows []float64, unit string, n int, higher bool) {
	if len(windows) == 0 {
		return
	}
	best := stats.Min(windows)
	if higher {
		best = stats.Max(windows)
	}
	ms[name] = metric{Value: best, Unit: unit, N: n, Windows: windows}
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// usage is a reading of the process-wide cost counters.
type usage struct {
	cpuUS  float64 // user+system CPU time, microseconds
	allocs float64 // heap objects allocated so far
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
	metrics.Read(allocSample)
	return usage{cpuUS: cpu, allocs: float64(allocSample[0].Value.Uint64())}
}

// sample is one completed job as its client saw it.
type sample struct {
	start int64 // ns since the run's epoch: when it was sent (open loop: when it was due)
	lat   int64 // ns from start to completion
	class uint8 // open loop only: classHeavy or classLight
}

// boundary is the state of the process at a window boundary.
type boundary struct {
	usage
	ok int64 // jobs completed OK so far
}

// watchWindows records a boundary at start and after each of n windows
// of length win, reading the OK-job count from ok. It returns when the
// last window has ended.
func watchWindows(start time.Time, win time.Duration, n int, ok func() int64) []boundary {
	out := make([]boundary, 0, n+1)
	for i := 0; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * win)))
		out = append(out, boundary{usage: readUsage(), ok: ok()})
	}
	return out
}

// windowMetrics folds one phase into the per-job metrics every workload
// reports. Samples are binned by completion time into the windows that
// bounds delimits; cost per job divides each window's CPU and allocation
// deltas by the jobs completed in it.
func windowMetrics(ms metricSet, samples []sample, bounds []boundary, phaseStart int64, win time.Duration) {
	n := len(bounds) - 1
	lats := make([][]float64, n)
	total := 0
	for _, s := range samples {
		w := int((s.start + s.lat - phaseStart) / int64(win))
		if s.start+s.lat < phaseStart || w >= n {
			continue
		}
		lats[w] = append(lats[w], nsToMs(s.lat))
		total++
	}
	var rate, p50, mean, p95, cpu, allocs []float64
	for w := 0; w < n; w++ {
		if len(lats[w]) > 0 {
			rate = append(rate, float64(len(lats[w]))/win.Seconds())
			p50 = append(p50, stats.Quantile(lats[w], 0.50))
			mean = append(mean, stats.Mean(lats[w]))
			p95 = append(p95, stats.Quantile(lats[w], 0.95))
		}
		if done := bounds[w+1].ok - bounds[w].ok; done > 0 {
			cpu = append(cpu, (bounds[w+1].cpuUS-bounds[w].cpuUS)/float64(done))
			allocs = append(allocs, (bounds[w+1].allocs-bounds[w].allocs)/float64(done))
		}
	}
	ms.putWindows("jobs_per_s", rate, "1/s", total, true)
	ms.putWindows("lat_p50_ms", p50, "ms", total, false)
	ms.putWindows("lat_mean_ms", mean, "ms", total, false)
	ms.putWindows("lat_p95_ms", p95, "ms", total, false)
	ms.putWindows("cpu_us_per_job", cpu, "us", total, false)
	ms.putWindows("allocs_per_job", allocs, "1", total, false)
}

// micro times op by direct calls: it sizes a batch to a fifth of budget,
// runs five batches and reports the fastest batch's ns per call and the
// allocations per call over all five.
func micro(budget time.Duration, op func()) (nsPerOp, allocsPerOp float64, calls int) {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if dt := time.Since(t0); dt >= budget/50 || n >= 1<<30 {
			n = int(float64(n)*float64(budget/5)/float64(dt)) + 1
			break
		}
		n *= 4
	}
	var ns []float64
	a0 := readUsage().allocs
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		ns = append(ns, float64(time.Since(t0))/float64(n))
	}
	return stats.Min(ns), (readUsage().allocs - a0) / float64(5*n), 5 * n
}
