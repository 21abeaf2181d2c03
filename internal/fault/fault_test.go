package fault

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("panic=0.01,delay=0.05:2ms,cancel=0.1", 7)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 7, PanicRate: 0.01, DelayRate: 0.05, Delay: 2 * time.Millisecond, CancelRate: 0.1}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Error("spec should be enabled")
	}
	// String renders back into parseable flag syntax.
	again, err := ParseSpec(spec.String(), 7)
	if err != nil {
		t.Fatalf("re-parsing %q: %v", spec.String(), err)
	}
	if again != spec {
		t.Fatalf("round trip: %+v != %+v", again, spec)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("delay=0.5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Delay != time.Millisecond {
		t.Errorf("delay without duration should default to 1ms, got %v", spec.Delay)
	}
	empty, err := ParseSpec("  ", 3)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Enabled() {
		t.Errorf("empty spec should inject nothing: %+v", empty)
	}
	if empty.String() != "none" {
		t.Errorf("empty spec renders %q, want none", empty.String())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"panic",                // no rate
		"panic=nope",           // unparseable rate
		"panic=1.5",            // rate > 1
		"panic=-0.1",           // negative rate
		"panic=0",              // zero rate: naming a fault that never fires is a typo
		"cancel=0",             // zero rate
		"delay=0:1ms",          // zero rate
		"delay=0.1:banana",     // bad duration
		"delay=0.1:-2ms",       // negative duration
		"delay=0.1:0s",         // zero duration
		"explode=0.5",          // unknown kind
		"panic=0.6,delay=0.6",  // rates sum > 1
		"panic=NaN",            // NaN fails every range check, so it must be named
		"panic=0.1,flap=1s:2s", // flap confines only network clauses
	} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

// TestPlanDeterminism: the fate of one task is a pure function of
// (seed, class, worker, index) — two injectors over the same spec plan
// identically no matter the call order, which is what lets chaos tests
// assert exact fault counts.
func TestPlanDeterminism(t *testing.T) {
	spec := Spec{Seed: 99, PanicRate: 0.1, DelayRate: 0.2, Delay: time.Millisecond, CancelRate: 0.1}
	a, b := New(spec), New(spec)
	classes := []string{"sha1", "bzip2", "mix"}
	// b visits the same keys in reverse order.
	type key struct {
		class  string
		worker int
		index  uint64
	}
	var keys []key
	for _, c := range classes {
		for w := 0; w < 4; w++ {
			for i := uint64(1); i <= 50; i++ {
				keys = append(keys, key{c, w, i})
			}
		}
	}
	plans := make([]Action, len(keys))
	for i, k := range keys {
		plans[i] = a.Plan(k.class, k.worker, k.index)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if got := b.Plan(k.class, k.worker, k.index); got != plans[i] {
			t.Fatalf("plan for %+v differs across injectors: %v vs %v", k, got, plans[i])
		}
	}
	if a.Counts() != b.Counts() {
		t.Fatalf("counts differ: %+v vs %+v", a.Counts(), b.Counts())
	}
}

// TestPlanRates: over many draws the planned fault mix approximates the
// configured rates (generous bounds — this is a sanity check, not a
// statistical test).
func TestPlanRates(t *testing.T) {
	in := New(Spec{Seed: 5, PanicRate: 0.2, DelayRate: 0.1, Delay: time.Millisecond})
	const n = 20000
	for i := uint64(1); i <= n; i++ {
		in.Plan("load", 0, i)
	}
	c := in.Counts()
	if c.Panics < n*0.2/2 || c.Panics > n*0.2*2 {
		t.Errorf("panic count %d far from expected %.0f", c.Panics, n*0.2)
	}
	if c.Delays < n*0.1/2 || c.Delays > n*0.1*2 {
		t.Errorf("delay count %d far from expected %.0f", c.Delays, n*0.1)
	}
	if c.Cancels != 0 {
		t.Errorf("cancel rate 0 but %d cancels planned", c.Cancels)
	}
}

func TestPlanDisabled(t *testing.T) {
	in := New(Spec{Seed: 1})
	for i := uint64(1); i <= 1000; i++ {
		if act := in.Plan("x", 0, i); act.Kind != None {
			t.Fatalf("zero spec planned %v at index %d", act, i)
		}
	}
	if c := in.Counts(); c != (Counts{}) {
		t.Fatalf("zero spec counted faults: %+v", c)
	}
}

func TestPanicValueError(t *testing.T) {
	pv := PanicValue{Class: "sha1", Worker: 3, Index: 17}
	msg := pv.Error()
	for _, want := range []string{"sha1", "worker 3", "task 17"} {
		if !strings.Contains(msg, want) {
			t.Errorf("PanicValue.Error() = %q, missing %q", msg, want)
		}
	}
}
