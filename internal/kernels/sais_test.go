package kernels

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

// SuffixArray returns the suffix array of data through the SA-IS core BWT
// runs: sa[i] is the start of the i-th lexicographically smallest suffix.
// Runs in O(n) time.
func SuffixArray(data []byte) []int {
	n := len(data)
	if n == 0 {
		return nil
	}
	sc := saisPool.Get().(*saisScratch)
	defer saisPool.Put(sc)
	// Symbols shift by +1 to make room for the 0 sentinel SA-IS needs.
	sc.s = grow(sc.s, n+1)
	for i, b := range data {
		sc.s[i] = int32(b) + 1
	}
	sc.s[n] = 0
	out := make([]int, n)
	for i, p := range sc.suffixArray(257)[1:] { // the sentinel sorts first
		out[i] = int(p)
	}
	return out
}

// naiveSuffixArray is the O(n² log n) reference used by the tests.
func naiveSuffixArray(data []byte) []int {
	sa := make([]int, len(data))
	for i := range sa {
		sa[i] = i
	}
	sort.Slice(sa, func(a, b int) bool {
		return string(data[sa[a]:]) < string(data[sa[b]:])
	})
	return sa
}

func TestSuffixArrayKnown(t *testing.T) {
	cases := map[string][]int{
		"banana":      {5, 3, 1, 0, 4, 2},
		"mississipp":  nil, // checked against naive below
		"abracadabra": nil,
		"aaaa":        {3, 2, 1, 0},
		"a":           {0},
		"":            {},
	}
	for in, want := range cases {
		got := SuffixArray([]byte(in))
		if want == nil {
			want = naiveSuffixArray([]byte(in))
		}
		if len(got) != len(want) {
			t.Fatalf("SA(%q) len %d want %d", in, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("SA(%q)=%v want %v", in, got, want)
			}
		}
	}
}

func TestSuffixArrayAgainstNaive(t *testing.T) {
	check := func(data []byte) bool {
		if len(data) > 500 {
			data = data[:500]
		}
		got := SuffixArray(data)
		want := naiveSuffixArray(data)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Structured inputs that stress the LMS machinery.
	for _, in := range [][]byte{
		bytes.Repeat([]byte("ab"), 300),
		bytes.Repeat([]byte("abc"), 200),
		bytes.Repeat([]byte{0}, 100),
		NewInput(21).Bytes(2000),
		NewInput(22).Text(2000),
	} {
		got := SuffixArray(in)
		want := naiveSuffixArray(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("structured input mismatch at rank %d", i)
			}
		}
	}
}

func TestSuffixArrayIsPermutation(t *testing.T) {
	data := NewInput(23).Bytes(5000)
	sa := SuffixArray(data)
	seen := make([]bool, len(data))
	for _, p := range sa {
		if p < 0 || p >= len(data) || seen[p] {
			t.Fatalf("invalid SA entry %d", p)
		}
		seen[p] = true
	}
	// Sortedness: each adjacent suffix pair in order.
	for i := 1; i < len(sa); i++ {
		if bytes.Compare(data[sa[i-1]:], data[sa[i]:]) >= 0 {
			t.Fatalf("suffixes out of order at rank %d", i)
		}
	}
}
