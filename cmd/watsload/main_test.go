package main

import (
	"io"
	"strings"
	"testing"

	"wats/internal/amc"
	"wats/internal/harness"
)

// Every submission mode against one harness node: each arrival lands in
// exactly one outcome, the node completed exactly the jobs watsload saw
// complete (Cluster.Close checks it), and nothing is left running.
func TestModesAccountEveryArrival(t *testing.T) {
	for _, mode := range []string{"unary", "batch", "stream"} {
		t.Run(mode, func(t *testing.T) {
			c, err := harness.StartCluster([]harness.NodeConfig{{Arch: amc.MustNew("n0", amc.CGroup{Freq: 2.0, N: 2}), MaxInflight: 64}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			o, err := parseOptions([]string{"-addr", c.URL, "-mode", mode, "-batch", "4",
				"-rate", "300", "-duration", "300ms", "-mix", "noop=3,sha1=1,nosuch=1", "-size", "1024"}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			s, err := o.drive(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if s.sent == 0 || s.completed == 0 || s.sent != s.completed+s.shed+s.expired+s.panicked+s.failed {
				t.Errorf("sent %d != %d completed + %d shed + %d expired + %d panicked + %d failed",
					s.sent, s.completed, s.shed, s.expired, s.panicked, s.failed)
			}
			// The unknown workload is a 400 on every path: failed, never shed.
			if s.failed == 0 || s.shed != 0 {
				t.Errorf("nosuch: %d failed, %d shed", s.failed, s.shed)
			}
			c.Account(harness.Tally{Sent: s.sent, OK: s.completed, Shed: s.shed, Failed: s.expired + s.panicked + s.failed})
			for _, v := range c.Close() {
				t.Error(v)
			}
		})
	}
}

// The exit status: 0 when something completed, 1 when nothing did, 2 on
// a usage error, with every bad -mix and -profile named.
func TestRunExitStatus(t *testing.T) {
	c, err := harness.StartCluster([]harness.NodeConfig{{Arch: amc.MustNew("n0", amc.CGroup{Freq: 2.0, N: 2}), MaxInflight: 64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr
	}{
		{[]string{"-mix", "noop"}, 0, ""},
		{[]string{"-mix", "nosuch"}, 1, "zero completed"},
		{[]string{"-mix", ""}, 2, "empty -mix"},
		{[]string{"-mix", "noop=0"}, 2, "bad weight"},
		{[]string{"-mix", "noop=x"}, 2, "bad weight"},
		{[]string{"-profile", "100"}, 2, "want rate:dur"},
		{[]string{"-profile", "0:1s"}, 2, "bad rate"},
		{[]string{"-profile", "100:-1s"}, 2, "bad duration"},
		{[]string{"-profile", " , "}, 2, "empty -profile"},
		{[]string{"-rate", "0"}, 2, "bad -rate"},
		{[]string{"-mode", "bulk"}, 2, "bad -mode"},
		{[]string{"-chaos"}, 2, "not defined"},
		{[]string{"-log-format", "json"}, 2, "not defined"},
	} {
		var stderr strings.Builder
		args := append([]string{"-addr", c.URL, "-rate", "200", "-duration", "100ms"}, tc.args...)
		if code := run(args, io.Discard, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, want %d; stderr %q lacks %q", tc.args, code, tc.code, stderr.String(), tc.want)
		}
	}
}
