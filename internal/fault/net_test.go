package fault

import (
	"testing"
	"time"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"latency=1:300ms",
		"drip=0.5:50ms:64",
		"reset=0.1",
		"blackhole=0.05",
		"latency=0.25:10ms,drip=1:75ms:32,reset=0.1,blackhole=0.1,flap=1s:2s",
	}
	for _, c := range cases {
		spec, err := ParseSpec(c, 7)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c, err)
		}
		if !spec.Enabled() {
			t.Fatalf("ParseSpec(%q): not enabled", c)
		}
		again, err := ParseSpec(spec.String(), 7)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", spec.String(), c, err)
		}
		if again != spec {
			t.Fatalf("round trip %q: %+v != %+v", c, again, spec)
		}
	}
	if spec, err := ParseSpec("", 1); err != nil || spec.Enabled() {
		t.Fatalf("empty spec: %+v, %v", spec, err)
	}
	if got := (Spec{}).String(); got != "none" {
		t.Fatalf("zero spec String() = %q", got)
	}
}

func TestParseSpecNetErrors(t *testing.T) {
	bad := []string{
		"latency",             // no =
		"latency=2:10ms",      // rate > 1
		"latency=0.5:-10ms",   // bad duration
		"latency=NaN:10ms",    // NaN rate
		"drip=0:50ms",         // zero rate
		"drip=0.5:50ms:0",     // zero chunk
		"drip=0.5:50ms:64:99", // too many fields
		"reset=nope",
		"blackhole=-1",
		"flap=1s",                 // missing duration
		"flap=-1s:2s",             // negative start
		"reset=0.6,blackhole=0.6", // partition overflow
		"jitter=0.5",              // unknown kind
	}
	for _, c := range bad {
		if _, err := ParseSpec(c, 1); err == nil {
			t.Errorf("ParseSpec(%q): expected error", c)
		}
	}
}

// TestPlanDeterministic: two injectors with the same spec plan the same
// schedule, and defaults produce roughly the configured rates.
func TestPlanDeterministic(t *testing.T) {
	spec, err := ParseSpec("latency=0.3:5ms,drip=0.2:1ms:8,reset=0.1,blackhole=0.1", 42)
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(spec), New(spec)
	var counts Counts
	for i := uint64(0); i < 2000; i++ {
		pa, pb := a.PlanNet("b0", i), b.PlanNet("b0", i)
		if pa != pb {
			t.Fatalf("index %d: %+v != %+v", i, pa, pb)
		}
		counts.Add(pa)
	}
	if counts.Resets < 120 || counts.Resets > 280 {
		t.Fatalf("resets = %d, want ~200", counts.Resets)
	}
	if counts.Latencies < 400 || counts.Latencies > 800 {
		t.Fatalf("latencies = %d, want ~540 (0.3 of non-terminal draws)", counts.Latencies)
	}
	// Distinct keys draw distinct streams.
	same := 0
	for i := uint64(0); i < 100; i++ {
		if a.PlanNet("b0", i) == a.PlanNet("b1", i) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("keys b0 and b1 drew identical schedules")
	}
}

// TestNextReplaysExactly: live Next() counts must equal a fresh
// injector's pure PlanNet() replay over the assigned index range — the
// exact-accounting property the watsaccept chaos scenario gates on.
func TestNextReplaysExactly(t *testing.T) {
	spec, _ := ParseSpec("latency=0.4:1ms,drip=0.3:1ms:8,reset=0.05", 9)
	live := New(spec)
	for i := 0; i < 500; i++ {
		live.Next("serve")
	}
	n := live.Assigned("serve")
	if n != 500 {
		t.Fatalf("assigned = %d, want 500", n)
	}
	fresh := New(spec)
	var want Counts
	for i := uint64(0); i < n; i++ {
		want.Add(fresh.PlanNet("serve", i))
	}
	if got := live.Counts(); got != want {
		t.Fatalf("live counts %+v != replayed %+v", got, want)
	}
}

// TestFlapWindow: outside the window Next assigns nothing; inside it
// assigns densely.
func TestFlapWindow(t *testing.T) {
	spec, _ := ParseSpec("latency=1:1ms,flap=1h:1s", 3)
	in := New(spec)
	if in.Active(time.Now()) {
		t.Fatal("active before flap window opens")
	}
	if a := in.Next("serve"); a.Faulty() {
		t.Fatalf("planned a fault outside the window: %+v", a)
	}
	if in.Assigned("serve") != 0 {
		t.Fatal("index assigned outside the window")
	}
	// Re-anchor the epoch so the window opened in the past and is live.
	in.Arm(time.Now().Add(-time.Hour - 500*time.Millisecond))
	if !in.Active(time.Now()) {
		t.Fatal("inactive inside flap window")
	}
	if a := in.Next("serve"); a.Latency == 0 {
		t.Fatalf("expected latency fault inside window, got %+v", a)
	}
	if in.Assigned("serve") != 1 {
		t.Fatalf("assigned = %d, want 1", in.Assigned("serve"))
	}
	in.Arm(time.Now().Add(-2 * time.Hour))
	if in.Active(time.Now()) {
		t.Fatal("active after flap window closed")
	}
}
