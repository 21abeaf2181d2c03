//go:build !race

package workload

import "testing"

// A simulated grid calls Benchmarks once per run, so what it allocates is
// paid thousands of times per experiment: one slab, not one object per
// workload and mix.
func TestBenchmarksOneAllocation(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = Benchmarks(1) }); n > 2 {
		t.Fatalf("Benchmarks allocates %v objects a call, want <= 2", n)
	}
}
