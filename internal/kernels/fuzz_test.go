package kernels

import (
	"bytes"
	"sort"
	"testing"
)

// A decoder may be handed bytes no encoder wrote, so none may panic on
// any input; the encoders' output must come back unchanged. CI runs each
// target for 10 s.

// naiveBWT sorts the rotations of data by comparing them whole, ties in
// rotation order, so the primary index is the first row equal to
// rotation 0.
func naiveBWT(data []byte) (out []byte, primary int) {
	n := len(data)
	rot := func(i int) string { return string(data[i:]) + string(data[:i]) }
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool { return rot(rows[a]) < rot(rows[b]) })
	out = make([]byte, n)
	for r, i := range rows {
		if i == 0 {
			primary = r
		}
		out[r] = data[(i+n-1)%n]
	}
	return out, primary
}

func FuzzBWT(f *testing.F) {
	for _, s := range []string{"", "a", "banana", "abab", "aaaa", "mississippi", "abcabcabd"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		out, p := BWT(data)
		want, wantP := naiveBWT(data)
		if !bytes.Equal(out, want) || p != wantP {
			t.Fatalf("BWT(%q) = %q, %d; want %q, %d", data, out, p, want, wantP)
		}
		if dec, err := UnBWT(out, p); err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("UnBWT(BWT(%q)) = %q, %v", data, dec, err)
		}
	})
}

func FuzzHuffmanDecode(f *testing.F) {
	f.Add([]byte("hello huffman"))
	f.Add(HuffmanEncode([]byte("abracadabra")))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = HuffmanDecode(data)
		if dec, err := HuffmanDecode(HuffmanEncode(data)); err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("Huffman round trip of %q: %q, %v", data, dec, err)
		}
	})
}

func FuzzLZWDecode(f *testing.F) {
	f.Add([]byte("TOBEORNOTTOBEORTOBEORNOT"))
	f.Add(LZWEncode([]byte("abababababab")))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = LZWDecode(data)
		if dec, err := LZWDecode(LZWEncode(data)); err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("LZW round trip of %q: %q, %v", data, dec, err)
		}
	})
}

func FuzzBzip2LikeDecode(f *testing.F) {
	f.Add([]byte("banana bandana"), 3)
	enc, p := Bzip2Like([]byte("abracadabra"))
	f.Add(enc, p)
	f.Fuzz(func(t *testing.T, data []byte, primary int) {
		_, _ = Bzip2LikeDecode(data, primary)
		enc, p := Bzip2Like(data)
		if dec, err := Bzip2LikeDecode(enc, p); err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("bzip2 round trip of %q: %q, %v", data, dec, err)
		}
	})
}

// TestLZWDecodeFullDictionary sends code 65535 twice once the dictionary
// is full, which the decoder once answered by indexing past it.
func TestLZWDecodeFullDictionary(t *testing.T) {
	enc := append(make([]byte, 2*(65535-256+1)), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := LZWDecode(enc); err == nil {
		t.Fatal("code 65535 accepted")
	}
}

// TestHuffmanDecodeRejectsBadLengths covers the two headers no encoder
// writes: a code length over 48 (the decoder once indexed a 64-entry
// table with it) and more codes of one length than a prefix code has
// room for.
func TestHuffmanDecodeRejectsBadLengths(t *testing.T) {
	stream := func(lengths map[byte]uint8) []byte {
		enc := make([]byte, 262)
		for s, l := range lengths {
			enc[s] = l
		}
		enc[259] = 1 // one symbol
		return enc
	}
	for name, enc := range map[string][]byte{
		"length 200":      stream(map[byte]uint8{'a': 200}),
		"length 49":       stream(map[byte]uint8{'a': 1, 'b': 49}),
		"over-subscribed": stream(map[byte]uint8{'a': 1, 'b': 1, 'c': 1}),
	} {
		if _, err := HuffmanDecode(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := HuffmanDecode(stream(map[byte]uint8{'a': 1, 'b': 48})); err != nil {
		t.Errorf("length 48: %v", err)
	}
}
