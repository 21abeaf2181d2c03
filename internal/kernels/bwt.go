package kernels

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// BWT computes the Burrows-Wheeler transform of data over its full
// rotations (no sentinel), returning the last column of the sorted
// rotation matrix and the primary index: the row of rotation 0, which
// UnBWT starts from. When data is a block repeated k times, rows come in
// k equal copies and primary is the first copy of rotation 0.
//
// It runs in O(n): rotations of a Lyndon word (a string strictly smaller
// than all its rotations) sort as its suffixes do, so the rotations of
// data's primitive block sort as the suffixes, found by SA-IS, of that
// block's smallest rotation.
func BWT(data []byte) (out []byte, primary int) { return bwt(nil, data) }

// bwt is BWT writing its output into dst, grown to len(data).
func bwt(dst, data []byte) (out []byte, primary int) {
	n := len(data)
	if n == 0 {
		return dst[:0], 0
	}
	p := n // length of the primitive block: the shortest period dividing n
	for d := 1; d*d <= n; d++ {
		for _, q := range [2]int{d, n / d} {
			if n%d == 0 && q < p && bytes.Equal(data[q:], data[:n-q]) {
				p = q
			}
		}
	}
	k := leastRotation(data[:p])
	sc := saisPool.Get().(*saisScratch)
	defer saisPool.Put(sc)
	sc.s = grow(sc.s, p+1) // the Lyndon word, shifted past the 0 sentinel
	for i, b := range data[k:p] {
		sc.s[i] = int32(b) + 1
	}
	for i, b := range data[:k] {
		sc.s[p-k+i] = int32(b) + 1
	}
	sc.s[p] = 0
	reps := n / p
	out = grow(dst, n)
	for r, j := range sc.suffixArray(257)[1:] {
		start := int(j) + k // of this row's rotation in data
		if start >= p {
			start -= p
		}
		c := data[p-1]
		if start == 0 {
			primary = r * reps
		} else {
			c = data[start-1]
		}
		for q := range reps {
			out[r*reps+q] = c
		}
	}
	return out, primary
}

// leastRotation returns the start of the smallest rotation of a primitive
// string, in O(n): candidates i and j are compared over k symbols, and
// the loser is skipped past the mismatch.
func leastRotation(b []byte) int {
	n := len(b)
	at := func(i int) byte { // b[i%n] for i < 2n
		if i >= n {
			i -= n
		}
		return b[i]
	}
	i, j, k := 0, 1, 0
	for i < n && j < n && k < n {
		x, y := at(i+k), at(j+k)
		switch {
		case x == y:
			k++
			continue
		case x > y:
			i += k + 1
		default:
			j += k + 1
		}
		if i == j {
			j++
		}
		k = 0
	}
	return min(i, j)
}

// UnBWT inverts the Burrows-Wheeler transform.
func UnBWT(bwt []byte, primary int) ([]byte, error) {
	sc := bzPool.Get().(*bzScratch)
	defer bzPool.Put(sc)
	return sc.unBWT(bwt, primary)
}

// bzScratch is the working memory of a Bzip2Like, Bzip2LikeDecode or
// UnBWT call: the stages' intermediate outputs and UnBWT's LF mapping.
type bzScratch struct {
	block, runs []byte // BWT then MTF, and RLE; UnRLE then UnMTF, and Huffman
	next        []int32
}

var bzPool = sync.Pool{New: func() any { return new(bzScratch) }}

// unBWT is UnBWT with its LF mapping in sc.next; the output is fresh.
func (sc *bzScratch) unBWT(bwt []byte, primary int) ([]byte, error) {
	n := len(bwt)
	if n == 0 {
		return nil, nil
	}
	if primary < 0 || primary >= n {
		return nil, fmt.Errorf("kernels: primary index %d out of range [0,%d)", primary, n)
	}
	// LF mapping: count occurrences, compute stable order of the first
	// column, walk backwards.
	var starts [256]int
	for _, b := range bwt {
		starts[b]++
	}
	sum := 0
	for v, c := range starts {
		starts[v] = sum
		sum += c
	}
	sc.next = grow(sc.next, n)
	next := sc.next
	for i, b := range bwt {
		next[starts[b]] = int32(i)
		starts[b]++
	}
	out := make([]byte, n)
	p := next[primary]
	for i := range out {
		out[i] = bwt[p]
		p = next[p]
	}
	return out, nil
}

// The move-to-front steps handle the alphabet's first eight symbols as
// one word, with no branch on where in it the symbol is; BWT output
// rarely reaches further back (text never does), and a symbol that does
// takes a loop that shifts the ones before it down a place.
const ones = 0x0101010101010101

// toFront moves symbol b of the little-endian word w to its front; low
// masks the bytes up to b's.
func toFront(w, low, b uint64) uint64 { return w&^low | (w<<8)&low | b }

// mtf writes the move-to-front transform of src (the BWT post-pass that
// concentrates probability mass at small values) to dst, which may be
// src and must hold len(src) bytes.
func mtf(dst, src []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	dst = dst[:len(src)]
	w := binary.LittleEndian.Uint64(alphabet[:]) // the first eight, current
	for i, b := range src {
		// The lowest zero byte of x is where b is among the first eight.
		x := w ^ ones*uint64(b)
		if z := (x - ones) &^ x & (ones << 7); z != 0 {
			w = toFront(w, (z&-z)<<1-1, uint64(b))
			dst[i] = byte(bits.TrailingZeros64(z) / 8)
			continue
		}
		binary.LittleEndian.PutUint64(alphabet[:], w)
		c, j := alphabet[0], uint8(0)
		alphabet[0] = b
		for c != b {
			j++
			c, alphabet[j] = alphabet[j], c
		}
		w = binary.LittleEndian.Uint64(alphabet[:])
		dst[i] = j
	}
	return dst
}

// unMTF writes the inverse move-to-front transform of src to dst, which
// may be src and must hold len(src) bytes.
func unMTF(dst, src []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	dst = dst[:len(src)]
	w := binary.LittleEndian.Uint64(alphabet[:]) // the first eight, current
	for i, j := range src {
		if j < 8 {
			b := w >> (8 * j) & 0xff
			w = toFront(w, ^(^uint64(0) << (8*j + 8)), b)
			dst[i] = byte(b)
			continue
		}
		binary.LittleEndian.PutUint64(alphabet[:], w)
		b := alphabet[j]
		for ; j > 0; j-- {
			alphabet[j] = alphabet[j-1]
		}
		alphabet[0] = b
		w = binary.LittleEndian.Uint64(alphabet[:])
		dst[i] = b
	}
	return dst
}

// appendRLE appends data run-length-encoded as (count, byte) pairs with a
// 255 cap per run — the cheap first stage of Bzip2-style compressors.
func appendRLE(dst, data []byte) []byte {
	for i := 0; i < len(data); {
		run := runAt(data, i)
		dst = append(dst, byte(run), data[i])
		i += run
	}
	return dst
}

// runAt returns the length of the run starting at data[i], capped at 255.
func runAt(data []byte, i int) int {
	run := 1
	for i+run < len(data) && data[i+run] == data[i] && run < 255 {
		run++
	}
	return run
}

// unRLE inverts appendRLE, writing its output into dst, grown to fit.
func unRLE(dst, data []byte) ([]byte, error) {
	if len(data)%2 != 0 {
		return nil, fmt.Errorf("kernels: RLE stream has odd length %d", len(data))
	}
	total := 0
	for i := 0; i < len(data); i += 2 {
		if data[i] == 0 {
			return nil, fmt.Errorf("kernels: RLE run of zero at %d", i)
		}
		total += int(data[i])
	}
	out := slices.Grow(dst[:0], total)
	for i := 0; i < len(data); i += 2 {
		for range data[i] {
			out = append(out, data[i+1])
		}
	}
	return out, nil
}
