package kernels

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// MD5 implemented from scratch (RFC 1321); validated against crypto/md5
// in the tests. It is the MD5 benchmark's work unit.

var md5K = func() [64]uint32 {
	var k [64]uint32
	for i := range k {
		k[i] = uint32(math.Floor(math.Abs(math.Sin(float64(i+1))) * (1 << 32)))
	}
	return k
}()

var md5S = [64]uint32{
	7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
	5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20,
	4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
	6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
}

// MD5Sum computes the MD5 digest of data: its whole blocks in place, then
// the tail padded on the stack with 0x80, zeros and the 64-bit
// little-endian bit length, one block or two.
func MD5Sum(data []byte) [16]byte {
	h := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	whole := len(data) &^ 63
	md5Blocks(&h, data[:whole])
	var tail [128]byte
	k := copy(tail[:], data[whole:])
	tail[k] = 0x80
	end := 64
	if k >= 56 {
		end = 128
	}
	binary.LittleEndian.PutUint64(tail[end-8:], uint64(len(data))*8)
	md5Blocks(&h, tail[:end])
	var out [16]byte
	for i, v := range h {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// md5Blocks runs the compression function over every 64-byte block of p,
// a loop per round, each with its own function and message order.
func md5Blocks(h *[4]uint32, p []byte) {
	var m [16]uint32
	for ; len(p) >= 64; p = p[64:] {
		for i := range m {
			m[i] = binary.LittleEndian.Uint32(p[4*i:])
		}
		a, b, c, d := h[0], h[1], h[2], h[3]
		for i := 0; i < 16; i++ {
			f := (b&c | ^b&d) + a + md5K[i] + m[i]
			a, b, c, d = d, b+bits.RotateLeft32(f, int(md5S[i])), b, c
		}
		for i := 16; i < 32; i++ {
			f := (d&b | ^d&c) + a + md5K[i] + m[(5*i+1)%16]
			a, b, c, d = d, b+bits.RotateLeft32(f, int(md5S[i])), b, c
		}
		for i := 32; i < 48; i++ {
			f := (b ^ c ^ d) + a + md5K[i] + m[(3*i+5)%16]
			a, b, c, d = d, b+bits.RotateLeft32(f, int(md5S[i])), b, c
		}
		for i := 48; i < 64; i++ {
			f := (c ^ (b | ^d)) + a + md5K[i] + m[(7*i)%16]
			a, b, c, d = d, b+bits.RotateLeft32(f, int(md5S[i])), b, c
		}
		h[0], h[1], h[2], h[3] = h[0]+a, h[1]+b, h[2]+c, h[3]+d
	}
}
