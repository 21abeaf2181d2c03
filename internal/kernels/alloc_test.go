//go:build !race

package kernels

import (
	"runtime"
	"testing"
)

// TestMixChildAllocCeilings holds the three child kinds of a mix job at
// 4 KiB to the allocations they make now plus 10%: working arrays come
// from the kernels' pooled scratch and only results are allocated, so a
// count above its ceiling is a scratch buffer or a per-symbol allocation
// come back. The bzip2 round trip made 75 with sort-based BWT and 19 with
// per-call arrays, the LZW one 7,927 and then 7, the digests 2.
func TestMixChildAllocCeilings(t *testing.T) {
	ds, ts := mixInputs()
	data, text := ds[0], ts[0]
	for _, c := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"bzip2 round trip", 5.5, func() {
			enc, p := Bzip2Like(text)
			_, _ = Bzip2LikeDecode(enc, p)
		}},
		{"LZW round trip", 2.2, func() { _, _ = LZWDecode(LZWEncode(data)) }},
		{"SHA-1 + MD5", 0, func() {
			_ = SHA1Sum(data)
			_ = MD5Sum(data)
		}},
	} {
		if got := testing.AllocsPerRun(20, c.op); got > c.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// TestBWTBytesPerInputByte holds BWT's memory to 18 bytes per input byte,
// 10% over the 16.4 it allocates on an empty scratch pool (the SA-IS
// working set and the output; 1 with the pool warm), so the 16 MiB size
// cap on a submitted job stays a memory bound. The prefix-doubling
// version it replaced allocated 25. The key sort works inside the SA-IS
// working set, so the two blocks it leaves to SA-IS are held to the same
// bound as the two it sorts.
func TestBWTBytesPerInputByte(t *testing.T) {
	const n = 64 << 10
	for _, in := range [][]byte{NewInput(3).Bytes(n), NewInput(3).Text(n), allAThenB(n), fibonacciWord(n)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		BWT(in)
		runtime.ReadMemStats(&after)
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / n; perByte > 18 {
			t.Errorf("BWT allocated %.1f bytes per input byte, ceiling 18", perByte)
		}
	}
}
