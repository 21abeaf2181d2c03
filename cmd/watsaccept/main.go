// Command watsaccept runs the stack's acceptance scenarios: every claim
// made beyond the simulator — batch/stream admission (serve), the
// elastic pool (elastic), workload-aware cluster routing and failover
// (gate), gray-failure defence (chaos), the digital twin's replay of a
// captured run (twin) — as one in-process run each on internal/harness,
// over real loopback HTTP, and the paper's policies on bare live runtimes
// over real kernels (live). A scenario is one file:
// its parameters are a struct literal (the values behind the committed
// BENCH_<scenario>.json, deliberately not flags), its header states the
// hypothesis and the gates. Every run also checks job conservation at
// every layer (harness.Cluster.Close; task completeness for live); a
// broken invariant fails the run with or without -check.
//
// Usage:
//
//	watsaccept -scenario gate                 # print one comparison
//	watsaccept -scenario all -check -out DIR  # CI gate + DIR/BENCH_*.json
package main

import (
	"flag"
	"fmt"
	"os"

	"wats/internal/harness"
)

// scenarios in the order -scenario all runs them. run returns the JSON
// document of the artifact; with check it also records every missed
// acceptance gate in rep.
var scenarios = []struct {
	name string
	run  func(rep *harness.Report, check bool) (any, error)
}{
	{"serve", serve.run},
	{"elastic", elastic.run},
	{"gate", routing.run},
	{"chaos", chaos.run},
	{"live", live.run},
	{"twin", replay.run},
}

func main() {
	name := flag.String("scenario", "all", "serve, elastic, gate, chaos, live, twin or all")
	check := flag.Bool("check", false, "enforce the scenario's acceptance gates")
	out := flag.String("out", "", "directory for BENCH_<scenario>.json (empty = print the JSON)")
	flag.Parse()

	ran, failed := 0, 0
	for _, s := range scenarios {
		if *name != "all" && *name != s.name {
			continue
		}
		ran++
		rep := &harness.Report{Scenario: s.name}
		doc, err := s.run(rep, *check)
		if err == nil {
			err = rep.Write(*out, doc)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "watsaccept: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "watsaccept: %s: FAIL %s\n", s.name, f)
		}
		failed += len(rep.Failures)
		if *check && len(rep.Failures) == 0 {
			fmt.Println("  check: PASS")
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "watsaccept: unknown -scenario %q\n", *name)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
