package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"wats/internal/gate"
)

func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("watsgate", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	return parseOptions(fs, args)
}

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parse(t, "-backend", "http://127.0.0.1:8080")
	if err != nil {
		t.Fatal(err)
	}
	if o.gateCfg.Policy.Kind != gate.PolicyWeighted {
		t.Fatalf("default policy %q", o.gateCfg.Policy.Kind)
	}
	if w := o.gateCfg.Policy.Weights; w[gate.ScorerAffinity] != 3 || w[gate.ScorerQueue] != 2 || w[gate.ScorerHealth] != 1 || w[gate.ScorerEjection] != 1 {
		t.Fatalf("default scorer weights %v", w)
	}
	// A bare URL is auto-named by position.
	if b := o.gateCfg.Backends[0]; b.Name != "b0" || b.URL != "http://127.0.0.1:8080" {
		t.Fatalf("backend %+v", b)
	}
	// Gray-failure defenses default on with a bounded retry budget.
	if !o.gateCfg.Hedge.Enabled || !o.gateCfg.Eject.Enabled {
		t.Fatalf("defenses off by default: %+v %+v", o.gateCfg.Hedge, o.gateCfg.Eject)
	}
	if o.gateCfg.Budget.Ratio != 0.1 || o.gateCfg.Budget.Burst != 32 {
		t.Fatalf("default retry budget %+v", o.gateCfg.Budget)
	}
	if o.gateCfg.WrapTransport != nil {
		t.Fatal("fault transport wrapper set without -fault")
	}
}

func TestParseOptionsPollInterval(t *testing.T) {
	o, err := parse(t, "-backend", "http://a:8080", "-poll-interval", "75ms")
	if err != nil {
		t.Fatal(err)
	}
	if o.gateCfg.PollInterval != 75*time.Millisecond {
		t.Fatalf("poll interval %v", o.gateCfg.PollInterval)
	}
}

func TestParseOptionsNetfault(t *testing.T) {
	o, err := parse(t, "-backend", "http://a:8080", "-fault", "latency=0.3:200ms,reset=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if o.gateCfg.WrapTransport == nil {
		t.Fatal("-fault did not install a transport wrapper")
	}
}

func TestParseOptionsNamedBackends(t *testing.T) {
	o, err := parse(t,
		"-backend", "fast=http://a:8080",
		"-backend", "slow=http://b:8080",
		"-policy", "least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.gateCfg.Backends) != 2 || o.gateCfg.Backends[0].Name != "fast" || o.gateCfg.Backends[1].Name != "slow" {
		t.Fatalf("backends %+v", o.gateCfg.Backends)
	}
	if o.gateCfg.Policy.Kind != gate.PolicyLeastLoad {
		t.Fatalf("policy %q", o.gateCfg.Policy.Kind)
	}
}

func TestParseOptionsRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{},                // no backends
		{"-backend", "="}, // empty name and URL
		{"-backend", "http://a", "-policy", "random"},        // unknown policy
		{"-backend", "http://a", "-scorers", "latency:1"},    // unknown scorer
		{"-backend", "http://a", "-alpha", "1.5"},            // alpha out of range
		{"-backend", "http://a", "-poll-interval", "-1s"},    // bad poll interval
		{"-backend", "http://a", "-attempts", "-2"},          // bad attempts
		{"-backend", "http://a", "-log-format", "xml"},       // bad log format
		{"-backend", "http://a", "-fault", "explode=0.5"},    // unknown fault clause
		{"-backend", "http://a", "-fault", "panic=0.1"},      // the gate runs no tasks
		{"-backend", "http://a", "-netfault", "reset=0.1"},   // flag renamed to -fault
		{"-backend", "http://a", "-scorers", "health:NaN"},   // weights must be finite
		{"-backend", "http://a", "-scorers", "health:+Inf"},  // weights must be finite
		{"-backend", "http://a", "-retry-budget", "-0.5"},    // negative budget
		{"-backend", "http://a", "-eject-factor", "1"},       // factor must exceed 1
		{"-backend", "dot.ted=http://a"},                     // '.' collides with the id separator
		{"-backend", "n=http://a", "-backend", "n=http://b"}, // duplicate name
	}
	for _, args := range cases {
		if _, err := parse(t, args...); err == nil {
			t.Fatalf("parseOptions(%v) accepted", args)
		}
	}
}

func TestHTTPServerIsBounded(t *testing.T) {
	s := newHTTPServer("127.0.0.1:0", nil)
	if s.ReadHeaderTimeout != 5*time.Second || s.IdleTimeout != 120*time.Second {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 5s, 2m0s", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v would cut long jobs short", s.ReadTimeout, s.WriteTimeout)
	}
}
