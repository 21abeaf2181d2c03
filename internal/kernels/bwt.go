package kernels

import (
	"bytes"
	"cmp"
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
// The rotations of data's primitive block, all distinct, are sorted by
// packed prefix keys, or by SA-IS in O(n) where that would be slow: a
// Lyndon word's rotations sort as its suffixes do.
func BWT(data []byte) (out []byte, primary int) { return bwt(nil, data) }

// bwt is BWT writing its output into dst, grown to len(data).
func bwt(dst, data []byte) (out []byte, primary int) {
	if len(data) == 0 {
		return dst[:0], 0
	}
	p := primitive(data)
	sc := saisPool.Get().(*saisScratch)
	defer saisPool.Put(sc)
	sc.reserve(p+1, 257) // SA-IS's working set, which keySort works in
	rows, k := sc.keySort(data[:p]), 0
	if rows == nil {
		rows, k = sc.saisRotations(data[:p])
	}
	return emitRows(dst, data, p, rows, k)
}

// emitRows writes data's BWT into dst, grown to len(data), from its
// primitive block data[:p]'s sorted rotations as starts less k, mod p.
func emitRows(dst, data []byte, p int, rows []int32, k int) (out []byte, primary int) {
	reps := len(data) / p
	out = grow(dst, len(data))
	for r, j := range rows {
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

// primitive returns the length of data's primitive block: its shortest
// period that divides len(data).
func primitive(data []byte) int {
	n, p := len(data), len(data)
	for d := 1; d*d <= n; d++ {
		for _, q := range [2]int{d, n / d} {
			if n%d == 0 && q < p && bytes.Equal(data[q:], data[:n-q]) {
				p = q
			}
		}
	}
	return p
}

// saisRotations returns the sorted rotations of the primitive block b as
// starts less k, mod len(b): the suffix array, by SA-IS, of the Lyndon
// word b[k:]+b[:k].
func (sc *saisScratch) saisRotations(b []byte) ([]int32, int) {
	p, k := len(b), leastRotation(b)
	sc.s = grow(sc.s, p+1) // the Lyndon word, shifted past the 0 sentinel
	for i, c := range b[k:] {
		sc.s[i] = int32(c) + 1
	}
	for i, c := range b[:k] {
		sc.s[p-k+i] = int32(c) + 1
	}
	sc.s[p] = 0
	return sc.suffixArray(257)[1:], k
}

// keySort gives up, leaving a block to SA-IS, if a bucket holds over
// 1/maxBucketShare of the rotations (and over minBucketGiveUp, so small
// blocks still sort by key), or once it spends over sortBudget moves per
// rotation on the buckets or 1/refineShare key comparisons per rotation
// on tied keys. Seeded Text and Bytes blocks of 4-64 KiB use at most
// 1/66, 2.2 and 1/71.
const (
	maxBucketShare, minBucketGiveUp = 32, 16
	sortBudget, refineShare         = 8, 8
)

// keySort returns the starts of the primitive block b's rotations in
// sorted order, or nil if it gave up; sc holds SA-IS's working set for b.
// Each of b's σ symbols is coded by its rank in w = bits.Len(σ-1) bits,
// and a rotation's first q = 32/w symbols pack into its uint32 key.
func (sc *saisScratch) keySort(b []byte) []int32 {
	p := len(b)
	var code [256]uint32
	for _, c := range b {
		code[c] = 1
	}
	sigma := uint32(0)
	for c, seen := range code {
		code[c], sigma = sigma, sigma+seen
	}
	w := max(bits.Len32(sigma-1), 1)
	q, pad := 32/w, 32%w
	keys := sc.s[:p]
	var v uint32 // rotation i's key, right-aligned
	for j := range q {
		v = v<<w | code[b[j%p]]
	}
	for i, j := 0, q%p; i < p; i++ {
		keys[i] = int32(v << pad)
		v = v<<w | code[b[j]]
		if j++; j == p {
			j = 0
		}
	}
	// The starts are counting-sorted on their keys' top bits, next to a
	// copy of their keys, in at most p buckets that fit the buffer.
	shift := 32 - min(bits.Len(uint(len(sc.buf)-2*p))-1, bits.Len(uint(p))-1, 32-pad)
	order, sorted, bkt := sc.buf[:p], sc.buf[p:2*p], sc.buf[2*p:2*p+1<<(32-shift)]
	clear(bkt)
	for _, key := range keys {
		bkt[uint32(key)>>shift]++
	}
	sum := int32(0)
	for c, m := range bkt {
		if m > minBucketGiveUp && int(m)*maxBucketShare > p {
			return nil
		}
		bkt[c], sum = sum, sum+m
	}
	for i, key := range keys {
		c := uint32(key) >> shift
		order[bkt[c]], sorted[bkt[c]] = int32(i), key
		bkt[c]++
	}
	// The buckets are in order, so one insertion sort over all of them
	// finishes the sort on whole keys: no start leaves its bucket.
	budget := sortBudget * p
	for i := 1; i < p; i++ {
		x, k, j := order[i], uint32(sorted[i]), i
		for ; j > 0 && uint32(sorted[j-1]) > k; j-- {
			order[j], sorted[j] = order[j-1], sorted[j-1]
		}
		order[j], sorted[j] = x, int32(k)
		if budget -= i - j; budget < 0 {
			return nil
		}
	}
	// Rotations whose keys tie compare by the keys q, 2q, … symbols on.
	// They are distinct, so they differ before the offset reaches p.
	budget = p / refineShare
	byLaterKeys := func(a, b int32) int {
		for d := q; budget >= 0; d += q {
			budget--
			if c := cmp.Compare(uint32(keys[(int(a)+d)%p]), uint32(keys[(int(b)+d)%p])); c != 0 {
				return c
			}
		}
		return 0
	}
	for lo, hi := 0, 1; lo < p && budget >= 0; lo = hi {
		for hi = lo + 1; hi < p && sorted[hi] == sorted[lo]; hi++ {
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], byLaterKeys)
		}
	}
	if budget < 0 {
		return nil
	}
	return order
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
