package twin

import (
	"bytes"
	"strings"
	"testing"

	"wats/internal/sched"
	"wats/internal/trace"
)

// synthCapture builds a deterministic fake capture: 60 tasks of three
// classes over ~60ms on a 2-fast + 2-slow machine.
func synthCapture() *trace.Captured {
	ms := int64(1e6)
	c := &trace.Captured{
		Header: trace.CaptureHeader{
			Version: 1, Policy: string(sched.KindWATS),
			GroupCounts: []int{2, 2}, GroupFreqs: []float64{2.0, 0.8},
			HelperPeriodNS: ms, SpeedEmulation: true,
		},
		Footer: &trace.CaptureFooter{EnergyJoules: 12.5, TasksRun: 60},
	}
	classes := []struct {
		name string
		work int64 // ns of fastest-core time
	}{{"sha1", 4 * ms}, {"md5", 2 * ms}, {"lzw", 6 * ms}}
	id := uint64(0)
	for i := 0; i < 60; i++ {
		cl := classes[i%3]
		id++
		ts := int64(i) * ms
		c.Decisions = append(c.Decisions, trace.Decision{
			ID: id, TS: ts, Class: cl.name, Rule: "history-partition",
		})
		c.Ends = append(c.Ends, trace.TaskEnd{
			ID: id, Start: ts + ms, End: ts + ms + cl.work, Work: cl.work,
		})
	}
	return c
}

func TestRunRanksAllPolicies(t *testing.T) {
	rep, err := Run("synth", synthCapture(), Options{Seed: 1, Sweep: true})
	if err != nil {
		t.Fatal(err)
	}
	// Six live policy kinds + four swept WATS variants; the snatching
	// kinds cannot run live, so they are no counterfactual.
	if len(rep.Rows) != 10 {
		t.Fatalf("rows: %d, want 10", len(rep.Rows))
	}
	want := []sched.Kind{sched.KindShare, sched.KindCilk, sched.KindPFT, sched.KindWATS, sched.KindWATSNP, sched.KindWATSMem}
	seen := map[string]bool{}
	var baselines int
	for _, r := range rep.Rows {
		seen[r.Policy] = true
		if r.Baseline {
			baselines++
			if r.Policy != string(sched.KindWATS) {
				t.Fatalf("baseline is %s, want live policy WATS", r.Policy)
			}
			if r.DeltaEnergyPct != 0 {
				t.Fatalf("baseline energy delta must be 0: %+v", r)
			}
		}
	}
	if baselines != 1 {
		t.Fatalf("baselines: %d", baselines)
	}
	for _, k := range want {
		if !seen[string(k)] {
			t.Fatalf("missing policy %s in report", k)
		}
	}
	for _, k := range []sched.Kind{sched.KindRTS, sched.KindWATSTS} {
		if seen[string(k)] {
			t.Fatalf("snatching policy %s in report", k)
		}
	}
	if rep.Best != rep.Rows[0].Policy {
		t.Fatal("Best must name the top-ranked row")
	}
	for i := 1; i < len(rep.Rows); i++ {
		if rep.Rows[i].P99MS < rep.Rows[i-1].P99MS {
			t.Fatalf("rows not sorted by p99: %v then %v", rep.Rows[i-1].P99MS, rep.Rows[i].P99MS)
		}
	}
	if rep.Tasks != 60 || rep.Skipped != 0 {
		t.Fatalf("coverage: tasks=%d skipped=%d", rep.Tasks, rep.Skipped)
	}
	if rep.LiveP99MS <= 0 || rep.FidelityPct < 0 {
		t.Fatalf("live stats: %+v", rep)
	}
}

// TestRunDeterministic is the acceptance gate: the same capture and seed
// must yield byte-identical JSON and markdown.
func TestRunDeterministic(t *testing.T) {
	render := func() ([]byte, string) {
		rep, err := Run("synth", synthCapture(), Options{Seed: 7, Sweep: true})
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js, rep.Markdown()
	}
	j1, m1 := render()
	j2, m2 := render()
	if !bytes.Equal(j1, j2) {
		t.Fatal("same capture + seed produced different JSON")
	}
	if m1 != m2 {
		t.Fatal("same capture + seed produced different markdown")
	}
	// A different seed is allowed to differ, but must still parse and
	// rank; sanity-check the markdown carries the fidelity line.
	if !strings.Contains(m1, "twin fidelity") || !strings.Contains(m1, "best policy") {
		t.Fatalf("markdown missing summary lines:\n%s", m1)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("x", &trace.Captured{}, Options{}); err == nil {
		t.Fatal("empty capture must fail")
	}
	c := synthCapture()
	c.Header.GroupFreqs = c.Header.GroupFreqs[:1]
	if _, err := Run("x", c, Options{}); err == nil {
		t.Fatal("mismatched arch header must fail")
	}
}
