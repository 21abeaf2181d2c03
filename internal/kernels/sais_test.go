package kernels

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

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

func TestSearchAll(t *testing.T) {
	data := []byte("abracadabra abracadabra")
	sa := SuffixArray(data)
	got := SearchAll(data, sa, []byte("abra"))
	want := []int{0, 7, 12, 19}
	if len(got) != len(want) {
		t.Fatalf("SearchAll=%v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SearchAll=%v want %v", got, want)
		}
	}
	if hits := SearchAll(data, sa, []byte("zzz")); len(hits) != 0 {
		t.Fatalf("phantom hits %v", hits)
	}
	if hits := SearchAll(data, sa, nil); hits != nil {
		t.Fatal("empty pattern should return nil")
	}
}

func TestSearchAllProperty(t *testing.T) {
	in := NewInput(24)
	data := in.Text(3000)
	sa := SuffixArray(data)
	check := func(start, plen uint16) bool {
		s := int(start) % len(data)
		l := 1 + int(plen)%8
		if s+l > len(data) {
			return true
		}
		pattern := data[s : s+l]
		got := SearchAll(data, sa, pattern)
		// Reference: scan.
		var want []int
		for i := 0; i+len(pattern) <= len(data); i++ {
			if bytes.Equal(data[i:i+len(pattern)], pattern) {
				want = append(want, i)
			}
		}
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
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
