package kernels

import "testing"

// The three child kinds of the repository benchmark's mix job at its
// 4 KiB size. A mix job never hands a kernel the same input twice, so
// the benchmarks cycle through 32 seeds' inputs: one repeated input
// trains the caches and the branch predictor on it, which made the
// bzip2 round trip read 1.2× and the LZW one 2.1× faster.

// mixInputs returns Bytes and Text at 4 KiB for seeds 2-33; seed 2 is the
// one input bench/micro.go's kernels.*_4k_ns measurements repeat.
func mixInputs() (data, text [][]byte) {
	for seed := uint64(2); seed < 34; seed++ {
		in := NewInput(seed)
		data = append(data, in.Bytes(4096))
		text = append(text, in.Text(4096))
	}
	return data, text
}

func BenchmarkBzip2Like4K(b *testing.B) {
	_, text := mixInputs()
	b.ReportAllocs()
	for i := range b.N {
		enc, p := Bzip2Like(text[i%len(text)])
		if _, err := Bzip2LikeDecode(enc, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZW4K(b *testing.B) {
	data, _ := mixInputs()
	b.ReportAllocs()
	for i := range b.N {
		if _, err := LZWDecode(LZWEncode(data[i%len(data)])); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBWT4K times BWT alone on the bzip2 child's Text inputs and on
// Bytes, both of which the key sort handles.
func BenchmarkBWT4K(b *testing.B) {
	data, text := mixInputs()
	for _, c := range []struct {
		name string
		ins  [][]byte
	}{{"Text", text}, {"Bytes", data}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				_, primary := BWT(c.ins[i%len(c.ins)])
				costSink += primary
			}
		})
	}
}

// BenchmarkBWTWorstCase times BWT on two 64 KiB blocks the key sort
// gives up on before it sorts, leaving them to SA-IS: the check should
// cost next to nothing beside it.
func BenchmarkBWTWorstCase(b *testing.B) {
	for _, c := range []struct {
		name string
		in   []byte
	}{{"allAThenB", allAThenB(64 << 10)}, {"fibonacciWord", fibonacciWord(64 << 10)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				_, primary := BWT(c.in)
				costSink += primary
			}
		})
	}
}

// digestSink keeps the compiler from dropping the digests' calls.
var digestSink byte

func BenchmarkDigest4K(b *testing.B) {
	data, _ := mixInputs()
	b.ReportAllocs()
	for i := range b.N {
		d := data[i%len(data)]
		digestSink ^= SHA1Sum(d)[0] ^ MD5Sum(d)[0]
	}
}

// BenchmarkInput4K times the synthesis of one mix child's input, which
// the job's root task does serially before it spawns the child.
func BenchmarkInput4K(b *testing.B) {
	in := NewInput(1)
	b.Run("Bytes", func(b *testing.B) {
		for range b.N {
			costSink += len(in.Bytes(4096))
		}
	})
	b.Run("Text", func(b *testing.B) {
		for range b.N {
			costSink += len(in.Text(4096))
		}
	})
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
