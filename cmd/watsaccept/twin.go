package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wats/internal/amc"
	"wats/internal/harness"
	"wats/internal/obs"
	"wats/internal/trace"
	"wats/internal/twin"
)

// Scenario twin: the digital twin against the live run it replays
// (DESIGN.md §11, BENCH_twin.json).
//
// Hypothesis: a decision-ledger capture of open-loop traffic on the
// 2 fast + 2 slow machine, replayed through the simulator under the live
// policy, reproduces the live p99 sojourn within 15%, and one capture and
// seed give one report byte for byte — so its counterfactual rows, the
// paper's policies on the traffic the service actually saw, can be read.
//
// Varied: the replayed policy — the live kinds and four swept WATS
// parameters (twin.Variants).
//
// Controlled: one node shaped like watsd's default (2 x 2.0 GHz + 2 x
// 0.8 GHz, WATS, speed emulation on, 64 admission slots) serving the
// built-in kernels; watsload's default mix at 40 jobs/s open loop for
// 3 s from one seed; the replay seed. The rate is deliberately modest:
// the twin models the emulated machine, not the host's cores, so the live
// side must stay below the host's saturation point or its p99 becomes
// host queueing the twin cannot (and should not) reproduce.
//
// Gates: fidelity gap at most 15%; two replays of the capture
// byte-identical; the report names a best policy.
type twinParams struct {
	Rate      float64 // jobs/s over the whole mix
	Dur       time.Duration
	Workloads []string // drawn in proportion to Weights
	Weights   []float64
	Seed      uint64 // the arrivals and the replay
	MaxGapPct float64
}

var replay = twinParams{Rate: 40, Dur: 3 * time.Second, Seed: 1, MaxGapPct: 15,
	Workloads: []string{"sha1", "md5", "lzw", "dmc", "bzip2"}, Weights: []float64{6, 2, 3, 2, 1}}

// run captures the live run, replays it twice, and returns the first
// replay's report as the artifact.
func (p twinParams) run(rep *harness.Report, check bool) (any, error) {
	arch := amc.MustNew("watsd", amc.CGroup{Freq: 2.0, N: 2}, amc.CGroup{Freq: 0.8, N: 2})
	c, err := harness.StartCluster([]harness.NodeConfig{{Arch: arch, MaxInflight: 64, Obs: obs.NewTracer(arch.NumCores(), 0)}}, nil)
	if err != nil {
		return nil, err
	}
	defer func() { rep.Fail(c.Close()...) }()
	dir, err := os.MkdirTemp("", "watsaccept-twin")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "twin-capture.ndjson")
	srv := c.Nodes[0].Srv
	if _, err := srv.StartCapture(trace.CaptureConfig{Path: path}); err != nil {
		return nil, err
	}

	streams := make([]harness.Stream, len(p.Workloads))
	for i, wl := range p.Workloads {
		streams[i] = harness.Stream{Class: wl, Body: []byte(`{"workload":"` + wl + `"}`)}
	}
	fmt.Printf("twin: %g jobs/s for %v on %s, replayed at seed %d\n", p.Rate, p.Dur, arch, p.Seed)
	phases := []harness.Phase{{Dur: p.Dur, Rates: harness.Split(p.Rate, p.Weights)}}
	load := harness.Fold(c.OpenLoop(harness.Schedule(p.Seed, streams, phases, 0)), nil)
	if _, err := srv.StopCapture(); err != nil {
		return nil, err
	}

	var reports [2]*twin.Report
	var docs [2][]byte
	for i := range reports {
		captured, err := trace.ParseCaptureFile(path)
		if err == nil {
			reports[i], err = twin.Run(filepath.Base(path), captured, twin.Options{Seed: p.Seed, Sweep: true})
		}
		if err == nil {
			docs[i], err = reports[i].JSON()
		}
		if err != nil {
			return nil, err
		}
	}
	r := reports[0]
	fmt.Print(r.Markdown())
	fmt.Printf("  %d sent, %d ok; twin fidelity gap %.1f%%, best %s\n", load.Sent, load.OK, r.FidelityPct, r.Best)
	if check {
		rep.Check(r.FidelityPct <= p.MaxGapPct, "twin fidelity gap %.1f%% exceeds %.0f%%: counterfactuals not trustworthy", r.FidelityPct, p.MaxGapPct)
		rep.Check(bytes.Equal(docs[0], docs[1]), "two replays of one capture at seed %d differ", p.Seed)
		rep.Check(r.Best != "", "the report names no best policy")
	}
	return r, nil
}
