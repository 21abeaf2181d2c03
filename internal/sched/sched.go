// Package sched implements the task-scheduling policies evaluated in the
// WATS paper:
//
//   - Cilk    — MIT Cilk: child-first (work-first) spawning, traditional
//     random task-stealing (§IV-A).
//   - PFT     — parent-first spawning, traditional random stealing
//     (Guo et al.'s help-first policy).
//   - RTS     — random task-snatching (Bender & Rabin): Cilk plus idle
//     faster cores snatching from randomly chosen slower cores.
//   - WATS    — the paper's contribution: parent-first spawning,
//     history-based task allocation (Algorithms 1 and 2) and
//     preference-based task stealing (Algorithm 3).
//   - WATS-NP — WATS without cross-cluster stealing (ablation, §IV-C).
//   - WATS-TS — WATS plus workload-aware snatching (ablation, §IV-D).
//
// Each policy is a single engine-agnostic Strategy — the spawn discipline,
// task-to-pool allocation and acquisition order the paper varies — that
// both execution engines consume: the discrete-event simulator of package
// sim (through the sim adapter in this package) and the live goroutine
// runtime of internal/runtime. Simulated policies are deterministic given
// the engine seed.
package sched

import (
	"wats/internal/sim"
)

// Kind names a scheduling policy.
type Kind string

const (
	KindCilk   Kind = "Cilk"
	KindPFT    Kind = "PFT"
	KindRTS    Kind = "RTS"
	KindWATS   Kind = "WATS"
	KindWATSNP Kind = "WATS-NP"
	KindWATSTS Kind = "WATS-TS"
	// KindWATSMem is the §IV-E memory-aware extension (not a paper
	// baseline; used by the ablations and the CLI).
	KindWATSMem Kind = "WATS-Mem"
	// KindShare is the OpenMP-style centralized task-sharing baseline
	// (§I), provided for comparison; the paper evaluates the stealing
	// family only.
	KindShare Kind = "Share"
)

// Kinds lists every built-in policy: the paper's five plus the
// task-sharing baseline.
var Kinds = []Kind{KindShare, KindCilk, KindPFT, KindRTS, KindWATS, KindWATSNP, KindWATSTS}

// FigureKinds lists the four policies compared in Figs. 6–8.
var FigureKinds = []Kind{KindCilk, KindPFT, KindRTS, KindWATS}

// New constructs a fresh simulator policy of the given kind: the kind's
// Strategy wrapped in the sim adapter. Policies are single-use: build a
// new one per engine run.
func New(kind Kind) (sim.Policy, error) {
	s, err := NewStrategy(kind)
	if err != nil {
		return nil, err
	}
	// The WATS family already carries its own sim adapter.
	if p, ok := s.(sim.Policy); ok {
		return p, nil
	}
	return newSimPolicy(s), nil
}

// MustNew is New but panics on error.
func MustNew(kind Kind) sim.Policy {
	p, err := New(kind)
	if err != nil {
		panic(err)
	}
	return p
}
