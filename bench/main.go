// Command bench is the repository's one benchmark: six named workloads
// over the whole stack (client, watsgate, watsd admission, live runtime,
// kernels, simulator), end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. BENCHMARK.json at the repository
// root declares the workloads, every metric's unit and direction, and
// the bound by which an end-to-end metric may worsen; README.md in this
// directory says why each workload exists and which end-to-end metric
// each layer metric should move.
//
// Usage, from the repository root:
//
//	go run ./bench                              # all workloads, end-to-end metrics
//	go run ./bench -workload serve_noop_unary   # one workload
//	go run ./bench -trace 1                     # per-layer metrics and span files
//	go run ./bench -compare A.ndjson B.ndjson   # apply the bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	measuredWindows = 10 // a run's measured phase; one window is -seconds/10
	warmupWindows   = 2  // discarded: first-run numbers read a quarter low
	setupRepeats    = 201
)

// workloads maps each name BENCHMARK.json declares to what runs it.
var workloads = map[string]func(*env) error{
	"serve_noop_unary":  runServeNoopUnary,
	"serve_noop_stream": runServeNoopStream,
	"gate_noop_unary":   runGateNoopUnary,
	"gate_mixed_open":   runGateMixedOpen,
	"kernel_mix_amc":    runKernelMixAMC,
	"sim_fig6":          runSimFig6,
}

// env is one workload run: its inputs, and what it has measured so far.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	win     time.Duration // one measurement window
	epoch   time.Time     // zero of every timestamp the run records
	tag0    int64         // tag of job 0 (see trace.go)
	rec     *recorder     // nil unless traced

	ms       metricSet
	problems []string // failed correctness checks
	tally             // measured jobs

	mem0 runtime.MemStats
	proc *procWatch
}

func (e *env) now() int64 { return int64(time.Since(e.epoch)) }

func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// startProc marks the start of the measured phase for the process-level
// metrics a traced run reports.
func (e *env) startProc(st *stack) {
	if !e.traced {
		return
	}
	runtime.ReadMemStats(&e.mem0)
	e.proc = watchProc(st)
}

// finish closes the measured phase: the job counts, and for a traced run
// the process-level metrics.
func (e *env) finish(t tally) {
	e.tally = t
	attempted := t.ok + t.failed
	if attempted > 0 {
		e.ms.put("failed_share", float64(t.failed)/float64(attempted), "ratio", int(attempted))
	}
	if e.proc == nil {
		return
	}
	e.proc.end()
	e.microHostRef()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := int(attempted)
	e.ms.put("proc.heap_inuse_mb", float64(mem.HeapInuse)/(1<<20), "MB", n)
	e.ms.put("proc.gc_pause_total_ms", nsToMs(int64(mem.PauseTotalNs-e.mem0.PauseTotalNs)), "ms", int(mem.NumGC-e.mem0.NumGC))
	e.ms.put("proc.goroutines_peak", float64(e.proc.goroutines), "count", n)
	e.ms.put("server.inflight_peak", float64(e.proc.jobs), "count", n)
}

// runResult is one workload run as written to the results file.
type runResult struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      bool      `json:"trace"`
	GoMaxProcs int       `json:"gomaxprocs"`
	Correct    bool      `json:"correct"`
	Problems   []string  `json:"problems,omitempty"`
	Attempted  int64     `json:"attempted"`
	Failed     int64     `json:"failed"`
	Metrics    metricSet `json:"metrics"`
}

type options struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
}

// runWorkload runs one workload and holds its metrics against the
// manifest: every metric produced must be declared with the same unit,
// an untraced run must produce every end-to-end metric, and a traced run
// reports 0 for a per-layer metric whose layer did not run in this
// workload.
func runWorkload(man *manifest, name string, o options) (*runResult, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	e := &env{seed: o.seed, seconds: o.seconds, traced: o.traced, ms: metricSet{},
		win: time.Duration(o.seconds * float64(time.Second) / measuredWindows), epoch: time.Now(), tag0: tagOf(o.seed)}
	if o.traced {
		e.rec = newRecorder(e.epoch, o.seed)
	}
	if err := run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if e.rec != nil && len(e.rec.spans) > 0 {
		if err := e.rec.writeSpans(filepath.Join(o.outDir, "trace-"+name+".ndjson")); err != nil {
			return nil, err
		}
	}
	if o.traced {
		// Measured with tracing on, so not the end-to-end numbers.
		for _, d := range man.EndToEnd {
			delete(e.ms, d.Name)
		}
	}
	declared := man.declared()
	for k, m := range e.ms {
		d, ok := declared[k]
		if !ok {
			return nil, fmt.Errorf("%s: metric %q is not declared in %s", name, k, manifestPath)
		}
		if d.Unit != m.Unit {
			return nil, fmt.Errorf("%s: metric %q has unit %q, %s declares %q", name, k, m.Unit, manifestPath, d.Unit)
		}
	}
	for _, d := range man.decls(o.traced) {
		if _, ok := e.ms[d.Name]; ok {
			continue
		}
		if !o.traced {
			return nil, fmt.Errorf("%s: no samples for end-to-end metric %q", name, d.Name)
		}
		e.ms.put(d.Name, 0, d.Unit, 0)
	}
	e.check(e.failed == 0, "%d of %d jobs failed", e.failed, e.ok+e.failed)
	return &runResult{Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.traced,
		GoMaxProcs: runtime.GOMAXPROCS(0), Correct: len(e.problems) == 0, Problems: e.problems,
		Attempted: e.ok + e.failed, Failed: e.failed, Metrics: e.ms}, nil
}

// print writes one line per metric, then the one-line JSON summary whose
// metrics are exactly the manifest's set for this kind of run.
func (r *runResult) print(man *manifest) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Printf("%s %s %.6g %s n=%d\n", r.Workload, k, m.Value, m.Unit, m.N)
	}
	for _, p := range r.Problems {
		fmt.Printf("%s FAILED CHECK: %s\n", r.Workload, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range man.decls(r.Trace) {
		summary.Metrics[d.Name] = value{r.Metrics[d.Name].Value, d.Unit}
	}
	line, _ := json.Marshal(summary) // plain numbers and strings: cannot fail
	fmt.Println(string(line))
}

// appendResult adds the run to the results file, one JSON object a line.
func appendResult(path string, r *runResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(r)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seeds job inputs and arrival schedules")
	seconds := flag.Float64("seconds", 0, "length of the measured phase, warm-up is extra (0 = run_seconds of "+manifestPath+")")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files")
	outDir := flag.String("out", "out/bench", "directory for results.ndjson and span files")
	compare := flag.Bool("compare", false, "compare two results files: -compare A.ndjson B.ndjson")
	flag.Parse()

	man, err := loadManifest(manifestPath)
	if err != nil {
		fatal("%v (run from the repository root)", err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare needs two results files")
		}
		if err := compareFiles(os.Stdout, man, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *seconds == 0 {
		*seconds = float64(man.RunSeconds)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fatal("need -seconds > 0, -trace 0 or 1, and no other arguments")
	}
	// One core, whatever the machine has: see "Load shape" in README.md.
	// Without the binding (not Linux, or not permitted) the run goes on
	// with one P that the kernel may move between cores.
	runtime.GOMAXPROCS(1)
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: not bound to one CPU: %v\n", err)
	}

	var names []string
	for _, w := range man.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal("workload %q is not declared in %s", *workload, manifestPath)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir}
	allCorrect := true
	for _, name := range names {
		r, err := runWorkload(man, name, o)
		if err != nil {
			fatal("%v", err)
		}
		if err := appendResult(filepath.Join(o.outDir, "results.ndjson"), r); err != nil {
			fatal("%v", err)
		}
		r.print(man)
		allCorrect = allCorrect && r.Correct
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
