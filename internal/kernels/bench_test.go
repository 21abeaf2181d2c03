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

// costSink keeps the compiler from dropping BenchmarkKernelCosts' probes.
var costSink int

// BenchmarkKernelCosts times one task of each kernel family at the input
// sizes internal/workload's task-class mixes were calibrated against: a
// sub-benchmark per probe, to be read as ns/op relative to sha1_4KiB.
func BenchmarkKernelCosts(b *testing.B) {
	in := NewInput(1)
	d4, d16, t16 := in.Bytes(4<<10), in.Bytes(16<<10), in.Text(16<<10)
	for _, p := range []struct {
		name string
		fn   func() int
	}{
		{"sha1_4KiB", func() int { return int(SHA1Sum(d4)[0]) }},
		{"sha1_16KiB", func() int { return int(SHA1Sum(d16)[0]) }},
		{"md5_16KiB", func() int { return int(MD5Sum(d16)[0]) }},
		{"lzw_16KiB", func() int { return len(LZWEncode(d16)) }},
		{"dmc_4KiB", func() int { return len(DMCEncode(d4, 1<<14)) }},
		{"huffman_16KiB", func() int { return len(HuffmanEncode(t16)) }},
		{"bwt_16KiB", func() int { _, primary := BWT(d16); return primary }},
		{"sais_16KiB", func() int { return len(SuffixArray(d16)) }},
		{"bzip2_16KiB", func() int { enc, _ := Bzip2Like(t16); return len(enc) }},
		{"ga-evolve_pop64", func() int {
			is := NewIsland(GAConfig{Pop: 64, Genome: 16, Generations: 5, Seed: 1})
			is.Evolve()
			return int(is.Best())
		}},
		{"ferret_48x48", func() int {
			img := GenImage(48, 48, 1)
			if Extract(img, Segment(img, 4), 4) == nil {
				return 0
			}
			return 1
		}},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				costSink += p.fn()
			}
		})
	}
}
