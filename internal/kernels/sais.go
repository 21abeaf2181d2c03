package kernels

import "sync"

// SA-IS: linear-time suffix-array construction by induced sorting
// (Nong, Zhang & Chan, 2009). This is the algorithm behind the BWT
// benchmark's block-sorting stage (the bwt_sais task class, and BWT
// itself).

// saisScratch is SA-IS's working set: the string to sort, the suffix
// array with the buckets and reduced strings after it, and the types.
type saisScratch struct {
	s, buf []int32
	isS    []bool
}

var saisPool = sync.Pool{New: func() any { return new(saisScratch) }}

// suffixArray returns the suffix array of sc.s, whose symbols are in
// [0, sigma) and whose last symbol is a unique smallest sentinel; it
// aliases sc.buf. All recursion levels share sc.buf and sc.isS: each
// level's string is at most half the one above, and so is its alphabet.
func (sc *saisScratch) suffixArray(sigma int) []int32 {
	n := len(sc.s)
	sc.reserve(n, sigma)
	sa := sc.buf[:n]
	sais(sc.s, sa, sigma, sc.isS, sc.buf[2*n:], sc.buf[n:2*n])
	return sa
}

// reserve grows sc's buffers to what suffixArray needs for n symbols in
// [0, sigma).
func (sc *saisScratch) reserve(n, sigma int) {
	sc.s = grow(sc.s, n)
	sc.buf = grow(sc.buf, 2*n+max(sigma, n/2+1))
	sc.isS = grow(sc.isS, n)
}

// sais writes the suffix array of s into sa. isS and bkt are scratch that
// the recursive call clobbers and this level recomputes; the reduced
// string lives in ws[:m] and deeper levels use ws[m:].
func sais(s, sa []int32, sigma int, isS []bool, bkt, ws []int32) {
	n := len(s)
	if n == 1 {
		sa[0] = 0
		return
	}
	bkt = bkt[:sigma]
	classify(s, isS)
	isLMS := func(i int32) bool { return i > 0 && isS[i] && !isS[i-1] }

	// 1. Sort the LMS substrings: place LMS positions at their buckets'
	// ends in any order, then induce.
	fill(sa, -1)
	buckets(s, bkt, true)
	for i := int32(n - 1); i > 0; i-- {
		if isLMS(i) {
			bkt[s[i]]--
			sa[bkt[s[i]]] = i
		}
	}
	induce(s, sa, isS, bkt)

	// 2. Gather them, sorted, into sa[:m] and name them (equal substrings,
	// equal names) at sa[m+p/2]: LMS positions are at least two apart.
	m := 0
	for _, p := range sa {
		if isLMS(p) {
			sa[m] = p
			m++
		}
	}
	fill(sa[m:], -1)
	name, prev := int32(0), int32(-1)
	for _, p := range sa[:m] {
		if prev >= 0 && !lmsEqual(s, isS, prev, p) {
			name++
		}
		sa[m+int(p)/2] = name
		prev = p
	}

	// 3. Sort the LMS suffixes: by their names when those are unique,
	// else by recursing on the string of names in text order, which ends
	// in the sentinel's name 0.
	s1 := ws[:0]
	for _, c := range sa[m:] {
		if c >= 0 {
			s1 = append(s1, c)
		}
	}
	if int(name)+1 < m {
		sais(s1, sa[:m], int(name)+1, isS, bkt, ws[m:])
		classify(s, isS)
	} else {
		for i, c := range s1 {
			sa[c] = int32(i)
		}
	}
	s1 = s1[:0]
	for i := int32(1); i < int32(n); i++ {
		if isLMS(i) {
			s1 = append(s1, i)
		}
	}
	for i, r := range sa[:m] {
		sa[i] = s1[r]
	}

	// 4. Induce the whole order from the sorted LMS suffixes, placed at
	// their buckets' ends from the largest down.
	fill(sa[m:], -1)
	buckets(s, bkt, true)
	for i := m - 1; i >= 0; i-- {
		p := sa[i]
		sa[i] = -1
		bkt[s[p]]--
		sa[bkt[s[p]]] = p
	}
	induce(s, sa, isS, bkt)
}

// classify marks each suffix of s S-type (smaller than the next) or
// L-type. Suffix i is S-type if s[i] < s[i+1], or they are equal and
// suffix i+1 is: if s[i] < s[i+1]+t, t = 1 if suffix i+1 is S-type. The
// compare is a sign bit, with no branch.
func classify(s []int32, isS []bool) {
	n := len(s)
	isS = isS[:n]
	isS[n-1] = true
	t := int32(1)
	for i := n - 2; i >= 0; i-- {
		t = int32(uint32(s[i]-s[i+1]-t) >> 31)
		isS[i] = t == 1
	}
}

// buckets sets bkt[c] to the start of symbol c's bucket in the suffix
// array, or with end to the start of the next one.
func buckets(s, bkt []int32, end bool) {
	clear(bkt)
	for _, c := range s {
		bkt[c]++
	}
	sum := int32(0)
	for c, k := range bkt {
		sum += k
		bkt[c] = sum
		if !end {
			bkt[c] -= k
		}
	}
}

// induce sorts the L-type suffixes left to right from what sa holds, then
// the S-type ones right to left.
func induce(s, sa []int32, isS []bool, bkt []int32) {
	buckets(s, bkt, false)
	for _, p := range sa {
		if p--; p >= 0 && !isS[p] {
			sa[bkt[s[p]]] = p
			bkt[s[p]]++
		}
	}
	buckets(s, bkt, true)
	for i := len(sa) - 1; i >= 0; i-- {
		if p := sa[i] - 1; p >= 0 && isS[p] {
			bkt[s[p]]--
			sa[bkt[s[p]]] = p
		}
	}
}

// lmsEqual reports whether the LMS substrings starting at a and b are
// equal, their terminating LMS positions included.
func lmsEqual(s []int32, isS []bool, a, b int32) bool {
	isLMS := func(i int32) bool { return isS[i] && !isS[i-1] }
	for d := int32(0); ; d++ {
		if s[a+d] != s[b+d] || isS[a+d] != isS[b+d] {
			return false
		}
		if d > 0 && (isLMS(a+d) || isLMS(b+d)) {
			return isLMS(a+d) && isLMS(b+d)
		}
	}
}

func fill(a []int32, v int32) {
	for i := range a {
		a[i] = v
	}
}
