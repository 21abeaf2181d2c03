// Command watstwin is the digital twin: it ingests a decision-ledger
// capture taken from a live watsd (-capture or POST /v1/trace/start),
// replays the exact captured traffic through the discrete-event simulator
// under every scheduling policy plus swept WATS parameters, and writes a
// deterministic JSON + markdown report ranking the counterfactuals by
// p99/mean/energy against the live baseline — including a fidelity line
// that validates the twin against the live run before you trust it.
// `watsaccept -scenario twin` gates that fidelity on a fresh capture.
//
// Usage:
//
//	watstwin -trace out/capture.ndjson
//	watstwin -trace out/capture.ndjson -out out -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"wats/internal/trace"
	"wats/internal/twin"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "decision-ledger capture to replay (NDJSON, required)")
		outDir    = flag.String("out", "out", "directory for twin-report.json and twin-report.md")
		seed      = flag.Uint64("seed", 1, "simulator seed (one fixed seed = byte-identical reports)")
		sweep     = flag.Bool("sweep", true, "also sweep WATS helper-period and EWMA parameters")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "watstwin: -trace is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*tracePath, *outDir, twin.Options{Seed: *seed, Sweep: *sweep}); err != nil {
		fmt.Fprintf(os.Stderr, "watstwin: %v\n", err)
		os.Exit(1)
	}
}

// run replays the capture and writes the report as JSON and markdown
// under outDir, printing the markdown.
func run(tracePath, outDir string, opts twin.Options) error {
	c, err := trace.ParseCaptureFile(tracePath)
	if err != nil {
		return err
	}
	rep, err := twin.Run(filepath.Base(tracePath), c, opts)
	if err != nil {
		return err
	}
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	md := rep.Markdown()
	jsonPath := filepath.Join(outDir, "twin-report.json")
	mdPath := filepath.Join(outDir, "twin-report.md")
	if err := os.WriteFile(jsonPath, js, 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(mdPath, []byte(md), 0o644); err != nil {
		return err
	}
	fmt.Print(md)
	fmt.Printf("\nwrote %s and %s\n", jsonPath, mdPath)
	return nil
}
