package fault

import (
	"math"
	"testing"
)

// FuzzParseSpec: ParseSpec never panics, and a spec it accepts has every
// rate 0 or in (0, 1], partitions that sum to at most 1, and a String
// that parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"", "none", "panic=0.01,delay=0.05:2ms,cancel=0.01", "delay=0.5",
		"latency=1:300ms,drip=1:50ms:64,flap=1s:2s", "reset=0.5,blackhole=0.5",
		"panic=NaN", "latency=+Inf:1ms", "drip=0x1p-3:1us:1", "flap=0s:1ns,reset=1e-300",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s, 7)
		if err != nil {
			return
		}
		for _, r := range []float64{spec.PanicRate, spec.DelayRate, spec.CancelRate,
			spec.LatencyRate, spec.DripRate, spec.ResetRate, spec.BlackholeRate} {
			if math.IsNaN(r) || r < 0 || r > 1 {
				t.Fatalf("ParseSpec(%q) accepted rate %v: %+v", s, r, spec)
			}
		}
		if spec.PanicRate+spec.DelayRate+spec.CancelRate > 1 || spec.ResetRate+spec.BlackholeRate > 1 {
			t.Fatalf("ParseSpec(%q) accepted an over-full partition: %+v", s, spec)
		}
		again, err := ParseSpec(spec.String(), 7)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", spec.String(), s, err)
		}
		if again != spec {
			t.Fatalf("round trip of %q through %q: %+v != %+v", s, spec.String(), again, spec)
		}
	})
}
