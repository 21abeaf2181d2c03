//go:build !race

package wats_test

import (
	"testing"

	"wats"
)

// simulateAllocBudget bounds the heap objects of one fixed Simulate call
// (AMC 2, WATS, three GA batches: 387 tasks). The run measured 554 when
// the budget was set: about 175 are cluster maps, three objects for each
// helper tick whose partition really changed (a cold history moves it
// often), two a batch are its task slab and spawn list, and the rest
// build the engine, the 16 × 4 deques and the sharded registry. The event
// loop, the steal path and a helper tick that confirms the partition
// contribute none. The ceiling sits ~25% above the measurement so a Go
// release may move it, while one allocation per event or per tick (it was
// 9,963 with container/heap and a map per tick) cannot come back
// unnoticed. The race detector allocates on its own, so the gate only
// exists in uninstrumented builds.
const simulateAllocBudget = 690

func TestSimulateAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		w := wats.GA(1)
		w.Batches = 3
		if _, err := wats.Simulate(wats.AMC2, wats.WATS, w, wats.Config{Seed: 1}); err != nil {
			panic(err)
		}
	})
	t.Logf("allocs per Simulate: %.0f (budget %d)", allocs, simulateAllocBudget)
	if allocs > simulateAllocBudget {
		t.Fatalf("Simulate allocated %.0f objects, budget is %d", allocs, simulateAllocBudget)
	}
}
