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

// Each kernel family keeps its working memory in a sync.Pool of scratch
// structs: a call takes one and puts it back, so the next call on that P
// reuses buffers still in its cache instead of zeroing fresh ones. What
// a kernel returns to its caller is never pooled memory.

// grow returns s resized to n, reallocated only if its capacity is short.
// The contents are whatever s held: callers write before they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

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

// repeatBelow is 0.6 as a float64 times 2^53, exactly, so Float64() < 0.6
// is u>>11 < repeatBelow on the same draw u.
const repeatBelow = 5404319552844595

// Bytes returns n bytes drawn from a small alphabet with repetition, so
// that BWT/LZW/Huffman achieve real compression. Past the ninth, a byte
// takes two draws: Float64() < 0.6 repeats one of the eight bytes before
// it, Intn(8) says which, else Intn(16) picks a letter (Intn is a
// modulus, so both are masks). Draws come in stack batches, and the last
// eight bytes ride in a register.
func (in *Input) Bytes(n int) []byte {
	out := make([]byte, n)
	var draws [256]uint64
	var last uint64 // the last eight bytes, the latest lowest
	head := draws[:min(n, 9)]
	in.r.Fill(head)
	for i, u := range head {
		out[i] = byte('a' + u&15)
		last = last<<8 | uint64(out[i])
	}
	for i := len(head); i < n; {
		d := draws[:2*min(n-i, len(draws)/2)]
		in.r.Fill(d)
		for j := 0; j < len(d); j += 2 {
			b := 'a' + d[j+1]&15
			if rep := last >> (d[j+1] & 7 * 8) & 0xff; d[j]>>11 < repeatBelow {
				b = rep // a conditional move: the choice is a coin flip
			}
			out[i] = byte(b)
			last = last<<8 | b
			i++
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
