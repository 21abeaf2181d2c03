package kernels

import (
	"bytes"
	"fmt"
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
func BWT(data []byte) (out []byte, primary int) {
	n := len(data)
	if n == 0 {
		return nil, 0
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
	s := make([]int32, p+1) // the Lyndon word, shifted past the 0 sentinel
	for i := range p {
		s[i] = int32(data[(k+i)%p]) + 1
	}
	reps := n / p
	out = make([]byte, n)
	for r, j := range suffixArray32(s, 257)[1:] {
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
	n := len(bwt)
	if n == 0 {
		return nil, nil
	}
	if primary < 0 || primary >= n {
		return nil, fmt.Errorf("kernels: primary index %d out of range [0,%d)", primary, n)
	}
	// LF mapping: count occurrences, compute stable order of the first
	// column, walk backwards.
	var counts [256]int
	for _, b := range bwt {
		counts[b]++
	}
	var starts [256]int
	sum := 0
	for v := 0; v < 256; v++ {
		starts[v] = sum
		sum += counts[v]
	}
	next := make([]int32, n)
	var seen [256]int
	for i, b := range bwt {
		next[starts[b]+seen[b]] = int32(i)
		seen[b]++
	}
	out := make([]byte, n)
	p := next[primary]
	for i := 0; i < n; i++ {
		out[i] = bwt[p]
		p = next[p]
	}
	return out, nil
}

// MTF applies the move-to-front transform (the BWT post-pass that
// concentrates probability mass at small values).
func MTF(data []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, b := range data {
		var j int
		for alphabet[j] != b {
			j++
		}
		out[i] = byte(j)
		copy(alphabet[1:j+1], alphabet[:j])
		alphabet[0] = b
	}
	return out
}

// UnMTF inverts the move-to-front transform.
func UnMTF(data []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, j := range data {
		b := alphabet[j]
		out[i] = b
		copy(alphabet[1:int(j)+1], alphabet[:int(j)])
		alphabet[0] = b
	}
	return out
}

// RLE run-length-encodes data as (count, byte) pairs with a 255 cap per
// run — the cheap first stage of Bzip2-style compressors.
func RLE(data []byte) []byte {
	runs := 0
	for i := 0; i < len(data); i += runAt(data, i) {
		runs++
	}
	out := make([]byte, 0, 2*runs)
	for i := 0; i < len(data); {
		run := runAt(data, i)
		out = append(out, byte(run), data[i])
		i += run
	}
	return out
}

// runAt returns the length of the run starting at data[i], capped at 255.
func runAt(data []byte, i int) int {
	run := 1
	for i+run < len(data) && data[i+run] == data[i] && run < 255 {
		run++
	}
	return run
}

// UnRLE inverts RLE.
func UnRLE(data []byte) ([]byte, error) {
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
	out := make([]byte, 0, total)
	for i := 0; i < len(data); i += 2 {
		for range data[i] {
			out = append(out, data[i+1])
		}
	}
	return out, nil
}
