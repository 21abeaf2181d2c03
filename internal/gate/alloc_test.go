//go:build !race

package gate

import (
	"context"
	"net/http"
	"testing"
	"time"

	"wats/internal/client"
)

// Ceilings for one unary job's heap objects across the whole process
// (client, net/http on both sides, gate, watsd, runtime), each the value
// measured when the unary hop got its hand-rolled codec plus 10 %, so the
// count cannot creep back: 84 direct and 173 via the gate at the time,
// against 106 and 231 before (DESIGN.md §13 has the breakdown). Measured
// by testing.AllocsPerRun, which pins GOMAXPROCS to 1 as the repository
// benchmark does.
const (
	directAllocCeiling  = 92
	viaGateAllocCeiling = 190
)

func TestUnaryHopAllocBudget(t *testing.T) {
	backend := realBackend(t, 0)
	// One poll at start-up and none during the measurement.
	_, gateTS := newGateTS(t, Config{Backends: []BackendConf{{Name: "only", URL: backend}}, PollInterval: time.Hour})
	body := []byte(`{"workload":"work","params":{"seed":7}}`)
	for _, hop := range []struct {
		name    string
		url     string
		ceiling float64
	}{
		{"direct", backend, directAllocCeiling},
		{"via gate", gateTS.URL, viaGateAllocCeiling},
	} {
		cl, err := client.New(client.Config{BaseURL: hop.url})
		if err != nil {
			t.Fatal(err)
		}
		submit := func() {
			res, err := cl.SubmitJob(context.Background(), body)
			if err != nil || res.StatusCode != http.StatusOK {
				t.Fatalf("%s: HTTP %d, err %v: %s", hop.name, res.StatusCode, err, res.Body)
			}
		}
		for i := 0; i < 50; i++ { // connections, pools and the TC table settle
			submit()
		}
		got := testing.AllocsPerRun(200, submit)
		t.Logf("%s: %.0f allocs per job (ceiling %.0f)", hop.name, got, hop.ceiling)
		if got > hop.ceiling {
			t.Errorf("%s: %.0f allocs per job, ceiling %.0f", hop.name, got, hop.ceiling)
		}
	}
}
