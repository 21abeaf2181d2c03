package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Report collects everything one scenario run got wrong, broken
// invariants and missed acceptance gates alike, so a run reports all of
// them and not just the first. A run passed when Failures is empty.
type Report struct {
	Scenario string // the artifact is BENCH_<Scenario>.json
	Failures []string
}

// Fail records failures as given (what Cluster.Close returns).
func (r *Report) Fail(msgs ...string) { r.Failures = append(r.Failures, msgs...) }

// Check records the formatted failure unless ok: one acceptance gate.
func (r *Report) Check(ok bool, format string, args ...any) {
	if !ok {
		r.Fail(fmt.Sprintf(format, args...))
	}
}

// Write marshals doc as the scenario's artifact under dir, created if
// missing; with no dir it goes to standard output.
func (r *Report) Write(dir string, doc any) error {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if dir == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+r.Scenario+".json")
	fmt.Printf("  wrote %s\n", path)
	return os.WriteFile(path, buf, 0o644)
}
