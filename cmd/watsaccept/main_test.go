package main

import (
	"testing"
	"time"

	"wats/internal/harness"
)

// Each scenario, from its own parameter struct with the durations
// shrunk, must hold every conservation invariant and fail no job. No
// latency ratio is asserted, so a busy runner cannot flake this.
func TestScenariosHoldInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario end to end (~10 s)")
	}
	const ms = time.Millisecond
	run := func(name string, run func(*harness.Report, bool) (any, error)) any {
		t.Helper()
		rep := &harness.Report{Scenario: name}
		doc, err := run(rep, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range rep.Failures {
			t.Errorf("%s: %s", name, f)
		}
		return doc
	}

	s := serve
	s.Duration = 300 * ms
	sr := run("serve", s.run).(*serveReport)
	for _, m := range []modeResult{sr.Unary, sr.Batch, sr.Stream} {
		if m.Errors != 0 || m.Completed == 0 {
			t.Errorf("serve %s: %d completed, %d errors", m.Mode, m.Completed, m.Errors)
		}
	}

	e := elastic
	e.LowDur, e.HighDur, e.RampExclude = 300*ms, 500*ms, 100*ms
	er := run("elastic", e.run).(*elasticReport)
	for _, p := range []poolResult{er.Fixed, er.Autoscaled} {
		if p.Sent == 0 || p.Completed != p.Sent {
			t.Errorf("elastic %s: %d of %d completed", p.Pool, p.Completed, p.Sent)
		}
	}

	g := routing
	g.Dur, g.RampExclude = 600*ms, 200*ms
	g.FailoverDur, g.KillAt, g.RestartAt = 1500*ms, 400*ms, 900*ms
	gr := run("gate", g.run).(*gateReport)
	for _, p := range gr.Policies {
		if p.Heavy.Sent == 0 || p.Light.Sent == 0 || p.Heavy.Failed+p.Light.Failed != 0 {
			t.Errorf("gate %s: heavy %+v light %+v", p.Policy, p.Heavy, p.Light)
		}
	}
	if fo := gr.Failover; fo.Sent == 0 || fo.Failed != 0 {
		t.Errorf("gate failover: %+v", fo)
	}

	c := chaos
	c.Dur, c.GrayAt = 1200*ms, 400*ms
	cr := run("chaos", c.run).(*chaosReport)
	for _, r := range []chaosRun{cr.Off, cr.On} {
		if r.Sent == 0 || r.Failed != 0 || r.Assigned == 0 {
			t.Errorf("chaos defended=%v: %d sent, %d failed, %d faults assigned", r.Defended, r.Sent, r.Failed, r.Assigned)
		}
	}

	l := live
	l.Machines, l.Rounds, l.Repeats = l.Machines[:1], 1, 1
	lr := run("live", l.run).(*liveReport)
	for _, k := range l.Policies {
		if ms := lr.Machines[0].MakespanMS[string(k)]; len(ms) != 1 || ms[0] <= 0 {
			t.Errorf("live %s: makespans %v", k, ms)
		}
	}
}
