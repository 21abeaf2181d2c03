package kernels

import (
	"encoding/binary"
	"math/bits"
)

// SHA-1 implemented from scratch (FIPS 180-1); validated against
// crypto/sha1 in the tests. It is the SHA-1 benchmark's work unit.

// SHA1Sum computes the SHA-1 digest of data: its whole blocks in place,
// then the tail padded on the stack with 0x80, zeros and the 64-bit
// big-endian bit length, one block or two.
func SHA1Sum(data []byte) [20]byte {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	whole := len(data) &^ 63
	sha1Blocks(&h, data[:whole])
	var tail [128]byte
	k := copy(tail[:], data[whole:])
	tail[k] = 0x80
	end := 64
	if k >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:], uint64(len(data))*8)
	sha1Blocks(&h, tail[:end])
	var out [20]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// sha1Blocks runs the compression function over every 64-byte block of
// p, a loop per stage of 20 rounds, each with its own function and
// constant.
func sha1Blocks(h *[5]uint32, p []byte) {
	var w [80]uint32
	for ; len(p) >= 64; p = p[64:] {
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		for i := 16; i < 80; i++ {
			w[i] = bits.RotateLeft32(w[i-3]^w[i-8]^w[i-14]^w[i-16], 1)
		}
		a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
		for i := 0; i < 20; i++ {
			f := b&c | ^b&d
			a, b, c, d, e = bits.RotateLeft32(a, 5)+f+e+0x5A827999+w[i], a, bits.RotateLeft32(b, 30), c, d
		}
		for i := 20; i < 40; i++ {
			f := b ^ c ^ d
			a, b, c, d, e = bits.RotateLeft32(a, 5)+f+e+0x6ED9EBA1+w[i], a, bits.RotateLeft32(b, 30), c, d
		}
		for i := 40; i < 60; i++ {
			f := b&c | b&d | c&d
			a, b, c, d, e = bits.RotateLeft32(a, 5)+f+e+0x8F1BBCDC+w[i], a, bits.RotateLeft32(b, 30), c, d
		}
		for i := 60; i < 80; i++ {
			f := b ^ c ^ d
			a, b, c, d, e = bits.RotateLeft32(a, 5)+f+e+0xCA62C1D6+w[i], a, bits.RotateLeft32(b, 30), c, d
		}
		h[0], h[1], h[2], h[3], h[4] = h[0]+a, h[1]+b, h[2]+c, h[3]+d, h[4]+e
	}
}
