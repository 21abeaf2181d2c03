package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestPath is BENCHMARK.json relative to the repository root, where
// `go run ./bench` is started from.
const manifestPath = "BENCHMARK.json"

// metricDecl is one declared metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the single declaration of workloads and
// metric names, units, directions and bounds. The program reads it at
// start, refuses to report a metric it does not declare, and refuses to
// finish a run that did not produce a declared one — so the file and
// the program cannot drift apart.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// decls returns the metrics a run must report: the end-to-end set for an
// untraced run, the per-layer set for a traced one.
func (m *manifest) decls(traced bool) []metricDecl {
	if traced {
		return m.PerLayer
	}
	return m.EndToEnd
}

// declared maps every metric name of both sets to its declaration.
func (m *manifest) declared() map[string]metricDecl {
	out := make(map[string]metricDecl, len(m.EndToEnd)+len(m.PerLayer))
	for _, d := range m.EndToEnd {
		out[d.Name] = d
	}
	for _, d := range m.PerLayer {
		out[d.Name] = d
	}
	return out
}
