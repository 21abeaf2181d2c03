//go:build !race

package kernels

import (
	"runtime"
	"testing"
)

// TestMixChildAllocCeilings holds the three child kinds of a mix job at
// 4 KiB to the allocations they make now: every working array is sized
// once per call, so a count above its ceiling is a per-symbol or
// per-level allocation come back. Before the rewrite the bzip2 round
// trip made 75 and the LZW one 7,927.
func TestMixChildAllocCeilings(t *testing.T) {
	data, text := mixInputs()
	for _, c := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"bzip2 round trip", 22, func() {
			enc, p := Bzip2Like(text)
			_, _ = Bzip2LikeDecode(enc, p)
		}},
		{"LZW round trip", 8, func() { _, _ = LZWDecode(LZWEncode(data)) }},
		{"SHA-1 + MD5", 2, func() {
			_ = SHA1Sum(data)
			_ = MD5Sum(data)
		}},
	} {
		if got := testing.AllocsPerRun(20, c.op); got > c.ceiling {
			t.Errorf("%s: %v allocations, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// TestBWTBytesPerInputByte holds BWT's memory to what the prefix-doubling
// version it replaced allocated, 25 bytes per input byte (three []int and
// the output), so the 16 MiB size cap on a submitted job stays a memory
// bound.
func TestBWTBytesPerInputByte(t *testing.T) {
	const n = 64 << 10
	for _, in := range [][]byte{NewInput(3).Bytes(n), NewInput(3).Text(n)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		BWT(in)
		runtime.ReadMemStats(&after)
		if perByte := float64(after.TotalAlloc-before.TotalAlloc) / n; perByte > 25 {
			t.Errorf("BWT allocated %.1f bytes per input byte, ceiling 25", perByte)
		}
	}
}
