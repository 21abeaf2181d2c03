package kernels

import "testing"

// The three child kinds of the repository benchmark's mix job at its
// 4 KiB size, on the inputs bench/micro.go's kernels.*_4k_ns
// micro-measurements use at seed 1: `make bench-kernels` reproduces those
// numbers with plain go test, allocations included.

func mixInputs() (data, text []byte) {
	in := NewInput(2)
	return in.Bytes(4096), in.Text(4096)
}

func BenchmarkBzip2Like4K(b *testing.B) {
	_, text := mixInputs()
	b.ReportAllocs()
	for range b.N {
		enc, p := Bzip2Like(text)
		if _, err := Bzip2LikeDecode(enc, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZW4K(b *testing.B) {
	data, _ := mixInputs()
	b.ReportAllocs()
	for range b.N {
		if _, err := LZWDecode(LZWEncode(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// digestSink keeps the compiler from dropping the digests' calls.
var digestSink byte

func BenchmarkDigest4K(b *testing.B) {
	data, _ := mixInputs()
	b.ReportAllocs()
	for range b.N {
		digestSink ^= SHA1Sum(data)[0] ^ MD5Sum(data)[0]
	}
}
