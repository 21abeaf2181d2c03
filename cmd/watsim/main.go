// Command watsim runs a single simulation — one architecture, one
// scheduler, one workload — and prints detailed results: per-core
// statistics, learned task classes, optionally an ASCII Gantt chart of
// the execution, a CSV segment trace and a Chrome trace of the run.
//
// Usage:
//
//	watsim -arch amc2 -policy WATS -workload GA -batches 4 -gantt
//	watsim -arch amc5 -policy RTS -workload SHA-1 -seed 3 -detail
//	watsim -arch amc1 -policy WATS -workload Ferret -trace-csv ferret.csv
//	watsim -workload GA -batches 6 -seed 7 -chrome wats-ga.json
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"wats/internal/amc"
	"wats/internal/obs"
	"wats/internal/sched"
	"wats/internal/sim"
	"wats/internal/trace"
	"wats/internal/workload"
)

func main() {
	var (
		archName = flag.String("arch", "amc2", "architecture: amc1..amc7")
		policy   = flag.String("policy", "WATS", "scheduler: Share|Cilk|PFT|RTS|WATS|WATS-NP|WATS-TS|WATS-Mem")
		wlName   = flag.String("workload", "GA", "benchmark: BWT|Bzip-2|Dedup|DMC|Ferret|GA|LZW|MD5|SHA-1")
		wlFile   = flag.String("workload-file", "", "CSV task trace to replay instead of a named benchmark (batch,class,work[,memfrac[,cmpi]])")
		batches  = flag.Int("batches", 0, "override batches/waves (0 = default)")
		seed     = flag.Uint64("seed", 1, "random seed")
		detail   = flag.Bool("detail", false, "print per-core breakdown")
		gantt    = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		traceCSV = flag.String("trace-csv", "", "write the segment trace as CSV to this file")
		chrome   = flag.String("chrome", "", "write the run as a Chrome trace to this file (load in ui.perfetto.dev)")
	)
	flag.Parse()

	arch := amc.ByName(*archName)
	if arch == nil {
		fatal("unknown architecture %q", *archName)
	}
	p, err := sched.New(sched.Kind(*policy))
	if err != nil {
		fatal("%v", err)
	}
	var w sim.Workload
	if *wlFile != "" {
		data, err := os.ReadFile(*wlFile)
		if err != nil {
			fatal("reading workload file: %v", err)
		}
		w, err = workload.ParseReplay(*wlFile, string(data))
		if err != nil {
			fatal("%v", err)
		}
	} else {
		w = workload.ByName(*wlName, *seed)
		if w == nil {
			fatal("unknown workload %q", *wlName)
		}
	}
	if *batches > 0 {
		switch b := w.(type) {
		case *workload.Batch:
			b.Batches = *batches
		case *workload.Pipeline:
			b.Waves = *batches
		}
	}

	cfg := sim.Config{Seed: *seed}
	var rec *trace.Recorder
	if *gantt || *traceCSV != "" || *chrome != "" {
		rec = trace.New()
		cfg.Tracer = rec
	}
	res, err := sim.New(arch, p, cfg).Run(w)
	if err != nil {
		fatal("%v", err)
	}

	if *detail {
		fmt.Print(res.Detail())
	} else {
		fmt.Println(res)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(rec.Gantt(110))
	}
	if *traceCSV != "" {
		if err := os.WriteFile(*traceCSV, []byte(rec.SegmentsCSV()), 0o644); err != nil {
			fatal("writing trace: %v", err)
		}
		fmt.Printf("wrote %d segments to %s\n", len(rec.Segments), *traceCSV)
	}
	if *chrome != "" {
		th := make(map[int]string, arch.NumCores())
		for c := range arch.NumCores() {
			th[c] = fmt.Sprintf("core %d (%.1f GHz)", c, arch.Speed(c))
		}
		var buf bytes.Buffer
		err := obs.WriteChrome(&buf, obs.Stream{Name: "watsim " + res.Policy + "/" + res.Workload + " on " + arch.Name,
			Events: obs.FromRecorder(rec), Threads: th})
		if err == nil {
			err = os.WriteFile(*chrome, buf.Bytes(), 0o644)
		}
		if err != nil {
			fatal("writing Chrome trace: %v", err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *chrome)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "watsim: "+format+"\n", args...)
	os.Exit(1)
}
