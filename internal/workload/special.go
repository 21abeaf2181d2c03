package workload

// PhaseChange returns a GA-like batch workload whose class workloads swap
// abruptly halfway through the run: the classes that were heavy become
// light and vice versa. It exercises the "timely update" property of
// §III-A — the helper thread must re-learn the pattern within the new
// phase.
func PhaseChange(batches int, seed uint64) *Batch {
	t := BaseT
	heavy := []ClassSpec{
		{Name: "ph_a", Count: 8, Work: 8 * t},
		{Name: "ph_b", Count: 120, Work: 1 * t},
	}
	light := []ClassSpec{
		{Name: "ph_a", Count: 8, Work: 1 * t},
		{Name: "ph_b", Count: 120, Work: 8 * t},
	}
	w := &Batch{
		BenchName: "PhaseChange",
		Mix:       heavy,
		Batches:   batches,
		Seed:      seed,
	}
	w.OnBatchStart = func(b int, bw *Batch) {
		if b >= batches/2 {
			bw.Mix = light
		} else {
			bw.Mix = heavy
		}
	}
	return w
}

// MixedMemory returns the §IV-E scenario: a batch mixing CPU-bound
// classes (which gain the full speedup on fast cores) with memory-bound
// classes (whose time is dominated by stalls and barely improves on fast
// cores). A CMPI-blind scheduler wastes fast-core capacity on stalls;
// the memory-aware variant routes the memory-bound classes to slow cores.
func MixedMemory(seed uint64) *Batch {
	t := BaseT
	return &Batch{BenchName: "MixedMem", Seed: seed, Mix: []ClassSpec{
		{Name: "cpu_solve", Count: 8, Work: 8 * t},
		{Name: "cpu_pack", Count: 16, Work: 4 * t},
		{Name: "cpu_small", Count: 40, Work: 1 * t},
		{Name: "mem_scan", Count: 32, Work: 3 * t, MemFrac: 0.85, CMPI: 0.2},
		{Name: "mem_chase", Count: 32, Work: 2 * t, MemFrac: 0.9, CMPI: 0.3},
	}}
}
