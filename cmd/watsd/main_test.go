package main

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) (*options, error) {
	t.Helper()
	fs := flag.NewFlagSet("watsd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

func TestParseOptionsDefaults(t *testing.T) {
	o, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if o.arch == nil || o.arch.NumCores() != 4 {
		t.Fatalf("default arch: %v", o.arch)
	}
	if o.autoscale {
		t.Fatal("autoscale should default off")
	}
	if o.minWorkers != 2 || o.maxWorkers != 16 {
		t.Fatalf("default worker bounds: %d..%d", o.minWorkers, o.maxWorkers)
	}
	if o.logFormat != "text" || o.capture != "" {
		t.Fatalf("observability defaults: log-format=%q capture=%q", o.logFormat, o.capture)
	}
}

func TestParseOptionsCaptureAndLogFormat(t *testing.T) {
	o, err := parse(t, "-capture", "out/cap.ndjson", "-log-format", "json")
	if err != nil {
		t.Fatal(err)
	}
	if o.capture != "out/cap.ndjson" || o.logFormat != "json" {
		t.Fatalf("options: %+v", o)
	}
}

func TestParseOptionsRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the usage error
	}{
		{"zero stall threshold", []string{"-stall-threshold", "0s"}, "-stall-threshold"},
		{"negative stall threshold", []string{"-stall-threshold", "-5s"}, "-stall-threshold"},
		{"zero fault rate", []string{"-fault", "panic=0"}, "-fault"},
		{"negative fault rate", []string{"-fault", "delay=-0.1:1ms"}, "-fault"},
		{"zero fault delay", []string{"-fault", "delay=0.1:0s"}, "-fault"},
		{"garbage fault spec", []string{"-fault", "explode=0.5"}, "-fault"},
		{"garbage netfault spec", []string{"-fault", "latency=banana"}, "-fault"},
		{"netfault rate above one", []string{"-fault", "latency=1.5:10ms"}, "-fault"},
		{"netfault reset+blackhole over one", []string{"-fault", "reset=0.7,blackhole=0.7"}, "-fault"},
		{"flap without network clause", []string{"-fault", "panic=0.1,flap=1s:2s"}, "-fault"},
		{"netfault flag removed", []string{"-netfault", "latency=1:10ms"}, "netfault"},
		{"zero min workers", []string{"-min-workers", "0"}, "-min-workers"},
		{"negative min workers", []string{"-min-workers", "-3"}, "-min-workers"},
		{"zero max workers", []string{"-max-workers", "0"}, "-max-workers"},
		{"negative max workers", []string{"-max-workers", "-1"}, "-max-workers"},
		{"min above max", []string{"-min-workers", "8", "-max-workers", "4"}, "-min-workers"},
		{"autoscale min below groups", []string{"-autoscale", "-min-workers", "1"}, "c-groups"},
		{"negative slo", []string{"-autoscale-slo", "-1s"}, "-autoscale-slo"},
		{"zero fast and slow", []string{"-fast", "0", "-slow", "0"}, "-fast/-slow"},
		{"bad policy", []string{"-policy", "FIFO"}, "-policy"},
		{"snatching policy RTS", []string{"-policy", "RTS"}, "behave as Cilk"},
		{"snatching policy WATS-TS", []string{"-policy", "WATS-TS"}, "behave as WATS"},
		{"zero max inflight", []string{"-max-inflight", "0"}, "-max-inflight"},
		{"bad log format", []string{"-log-format", "xml"}, "-log-format"},
		{"empty log format", []string{"-log-format", ""}, "-log-format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.args...)
			if err == nil {
				t.Fatalf("args %v accepted, want usage error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseOptionsAutoscale(t *testing.T) {
	o, err := parse(t, "-autoscale", "-min-workers", "2", "-max-workers", "12", "-autoscale-slo", "250ms")
	if err != nil {
		t.Fatal(err)
	}
	if !o.autoscale || o.minWorkers != 2 || o.maxWorkers != 12 {
		t.Fatalf("autoscale options: %+v", o)
	}
	// min-workers below max but above groups: valid without autoscale too.
	if _, err := parse(t, "-min-workers", "1"); err != nil {
		t.Fatalf("non-autoscale min-workers=1 should parse: %v", err)
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
