package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMetricsLint walks the full rendered /metrics exposition and
// enforces the repo's naming conventions: every family carries the
// wats_ prefix, counters end in a _total unit suffix, histograms carry
// a unit suffix (_nanos / _joules) unless explicitly unitless, and no
// family is declared twice. New collectors that break the conventions
// fail here instead of in a dashboard months later.
func TestMetricsLint(t *testing.T) {
	// Unit-less families that are deliberate: depths and sizes have no
	// unit, and the worker-pool gauge is a plain count.
	unitless := map[string]bool{
		"wats_queue_depth": true, // histogram of pool depths
		"wats_workers":     true, // gauge: current pool size
	}

	tr := NewTracer(4, 256)
	tr.Spawn(0, 0, "f", 1)
	tr.Complete(0, 0, "f", time.Millisecond)
	jobs := &JobMetrics{}
	jobs.Submitted()
	jobs.Completed("f", time.Millisecond, 2*time.Millisecond)
	workers := []WorkerCounters{{Worker: 0, Group: 0, TasksRun: 1, BusyNanos: 1000, EnergyJoules: 0.5}}

	h := MetricsHandler(tr, func() []WorkerCounters { return workers }, jobs)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	type family struct{ kind string }
	families := map[string]family{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 4 {
			t.Fatalf("malformed TYPE line: %q", line)
		}
		name, kind := parts[2], parts[3]
		if _, dup := families[name]; dup {
			t.Errorf("family %s declared twice", name)
		}
		families[name] = family{kind: kind}
	}
	if len(families) < 15 {
		t.Fatalf("suspiciously few families rendered (%d); exposition:\n%s", len(families), body)
	}

	for name, f := range families {
		if !strings.HasPrefix(name, "wats_") {
			t.Errorf("family %s lacks the wats_ prefix", name)
		}
		switch f.kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %s must end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_nanos") && !strings.HasSuffix(name, "_joules") && !unitless[name] {
				t.Errorf("histogram %s has no unit suffix (_nanos/_joules) and is not allowlisted", name)
			}
		case "gauge":
			if !unitless[name] && !strings.HasSuffix(name, "_nanos") && !strings.HasSuffix(name, "_joules") {
				t.Errorf("gauge %s has no unit and is not allowlisted", name)
			}
		default:
			t.Errorf("family %s has unexpected type %s", name, f.kind)
		}
	}

	// Every sample line must belong to a declared family: catches
	// collectors emitting series without HELP/TYPE headers.
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(name, suf); ok {
				base = s
				break
			}
		}
		if _, ok := families[name]; ok {
			continue
		}
		if _, ok := families[base]; !ok {
			t.Errorf("sample %q belongs to no declared family", line)
		}
	}
}
