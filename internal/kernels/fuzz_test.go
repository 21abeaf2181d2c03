package kernels

import (
	"bytes"
	"fmt"
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

// FuzzBWT covers both rotation sorts: the seeds of long runs and
// Fibonacci-like words include blocks keySort leaves to SA-IS, the
// seeded inputs ones it sorts.
func FuzzBWT(f *testing.F) {
	for _, s := range []string{"", "a", "banana", "abab", "aaaa", "mississippi", "abcabcabd"} {
		f.Add([]byte(s))
	}
	for _, shape := range []func(int) []byte{allAThenB, fibonacciWord, thueMorse, abThenB} {
		f.Add(shape(17))
		f.Add(shape(64))
	}
	f.Add(NewInput(1).Text(64))
	f.Add(NewInput(1).Bytes(64))
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

// bitHuffmanDecode is the reference HuffmanDecode: it reads a code bit by
// bit and stops at the first length whose range of codes holds it.
func bitHuffmanDecode(enc []byte) ([]byte, error) {
	if len(enc) < 260 {
		return nil, fmt.Errorf("kernels: huffman stream too short (%d)", len(enc))
	}
	lengths := (*[256]uint8)(enc[:256])
	n := int(enc[256])<<24 | int(enc[257])<<16 | int(enc[258])<<8 | int(enc[259])
	if n == 0 {
		return nil, nil
	}
	var t canonical
	if err := canonicalCodes(lengths, &t); err != nil {
		return nil, err
	}
	nbits := len(enc) * 8
	if n > nbits-260*8 {
		return nil, fmt.Errorf("kernels: huffman stream truncated")
	}
	out := make([]byte, n)
	pos := 260 * 8
	for i := range out {
		code := uint64(0)
		for l := 1; ; l++ {
			if l > maxCodeLen || pos == nbits {
				return nil, fmt.Errorf("kernels: huffman code at bit %d invalid or truncated", pos)
			}
			code = code<<1 | uint64(enc[pos>>3]>>(7-pos&7)&1)
			pos++
			if d := code - t.first[l]; d < t.count[l] {
				out[i] = t.syms[t.offset[l]+int(d)]
				break
			}
		}
	}
	return out, nil
}

// FuzzHuffmanDecode holds HuffmanDecode to bitHuffmanDecode, output and
// error, on the fuzzed bytes as a stream and as the payload behind the
// header HuffmanEncode writes for them, and round-trips them.
func FuzzHuffmanDecode(f *testing.F) {
	f.Add([]byte("hello huffman"))
	f.Add(HuffmanEncode([]byte("abracadabra")))
	enc := HuffmanEncode(NewInput(1).Text(3000))
	f.Add(enc[:len(enc)-7])
	// One code, "0" for 'a', and 64 one bits: no code in 48 of them.
	noCode := make([]byte, 260, 268)
	noCode['a'], noCode[259] = 1, 1
	f.Add(append(noCode, bytes.Repeat([]byte{0xff}, 8)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range [][]byte{data, append(HuffmanEncode(data)[:260:260], data...)} {
			got, err := HuffmanDecode(s)
			want, wantErr := bitHuffmanDecode(s)
			if !bytes.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("HuffmanDecode(%q) = %q, %v; want %q, %v", s, got, err, want, wantErr)
			}
		}
		if dec, err := HuffmanDecode(HuffmanEncode(data)); err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("Huffman round trip of %q: %q, %v", data, dec, err)
		}
	})
}

// copyMTF and copyUnMTF are the reference move-to-front transforms: they
// move a symbol to the front with copy.
func copyMTF(data []byte) []byte {
	var alphabet [256]byte
	for i := range alphabet {
		alphabet[i] = byte(i)
	}
	out := make([]byte, len(data))
	for i, b := range data {
		j := bytes.IndexByte(alphabet[:], b)
		out[i] = byte(j)
		copy(alphabet[1:j+1], alphabet[:j])
		alphabet[0] = b
	}
	return out
}

func copyUnMTF(data []byte) []byte {
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

// FuzzMTF holds mtf and unMTF to the references on any bytes.
func FuzzMTF(f *testing.F) {
	f.Add([]byte("banana"))
	f.Add([]byte{0, 255, 255, 0, 128, 1})
	f.Add([]byte{1, 2, 1, 0, 3, 1, 2, 7, 6, 7, 0, 1, 5, 4})
	f.Add([]byte{255, 254, 255, 128, 254, 255, 128, 0, 255, 1, 128, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := mtf(make([]byte, len(data)), data), copyMTF(data); !bytes.Equal(got, want) {
			t.Fatalf("mtf(%q) = %q, want %q", data, got, want)
		}
		if got, want := unMTF(make([]byte, len(data)), data), copyUnMTF(data); !bytes.Equal(got, want) {
			t.Fatalf("unMTF(%q) = %q, want %q", data, got, want)
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
