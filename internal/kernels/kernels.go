// Package kernels provides pure-Go, from-scratch implementations of the
// CPU-bound computations behind the Table III benchmarks: Burrows-Wheeler
// transform (with move-to-front and run-length coding), canonical Huffman
// coding (the core of Bzip2's entropy stage), LZW compression, Dynamic
// Markov Coding, MD5 and SHA-1 message digests, an island-model genetic
// algorithm, content-defined chunking with deduplication (Dedup), and a
// feature-extraction/similarity pipeline (Ferret).
//
// The kernels serve two purposes in the reproduction:
//
//  1. They are the real work units executed by the live goroutine runtime
//     (package runtime) in the examples, watsd's workloads and the
//     watsaccept live scenario, making the scheduler exercise genuine
//     CPU-bound tasks rather than sleeps.
//  2. Their relative costs across input sizes ground the task-class mixes
//     of package workload (see DESIGN.md).
//
// Everything is implemented from scratch on the standard library; the
// digest kernels are validated against crypto/md5 and crypto/sha1 in the
// tests.
package kernels

import "wats/internal/rng"

// Input generates deterministic pseudo-random byte corpora for the
// kernels, with tunable redundancy so the compressors have structure to
// find.
type Input struct {
	r *rng.Source
}

// NewInput returns a generator seeded with the given seed.
func NewInput(seed uint64) *Input {
	return &Input{r: rng.New(seed ^ 0x5851F42D4C957F2D)}
}

// Bytes returns n bytes drawn from a small alphabet with repetition, so
// that BWT/LZW/Huffman achieve real compression.
func (in *Input) Bytes(n int) []byte {
	out := make([]byte, n)
	// Markov-ish: repeat recent substrings with high probability.
	for i := range out {
		if i > 8 && in.r.Float64() < 0.6 {
			back := 1 + in.r.Intn(8)
			out[i] = out[i-back]
		} else {
			out[i] = byte('a' + in.r.Intn(16))
		}
	}
	return out
}

// Text returns n bytes of word-like text (space-separated "words"),
// exercising dictionary coders on realistic token boundaries.
func (in *Input) Text(n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		wl := 2 + in.r.Intn(8)
		for i := 0; i < wl && len(out) < n; i++ {
			out = append(out, byte('a'+in.r.Intn(6)))
		}
		if len(out) < n {
			out = append(out, ' ')
		}
	}
	return out
}
