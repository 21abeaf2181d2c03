package gate

import (
	"math"
	"testing"
)

// FuzzParseScorers: ParseScorers never panics, and a weight map that both
// it and Policy.validate accept has only finite positive weights — the
// gate encodes them in /v1/gate/table, and JSON has no NaN or Inf.
func FuzzParseScorers(f *testing.F) {
	for _, s := range []string{
		"class-affinity:3,queue-depth:2,health:1,ejection:1", "health, queue-depth:0.5",
		"class-affinity:NaN,queue-depth:+Inf", "health:-1", "health:0x1p-4", "health:1e309",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := ParseScorers(s)
		if err != nil || (Policy{Kind: PolicyWeighted, Weights: w}).validate() != nil {
			return
		}
		for name, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("ParseScorers(%q) + validate accepted %s:%v", s, name, v)
			}
		}
	})
}
