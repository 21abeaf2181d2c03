package kernels

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
)

// codecGolden is one SHA-256 over every byte BWT, Bzip2Like, LZWEncode,
// HuffmanEncode, mtf and appendRLE return on goldenInputs, and primaryGolden one
// over the primary index BWT and Bzip2Like return on the aperiodic ones.
// Both were recorded on the prefix-doubling BWT, the map-based LZW and the
// map-based Huffman decoder before they were rewritten for speed: a
// codec's contract is its output, so a rewrite reproduces these bytes,
// and a mismatch is never fixed by editing a digest alongside it.
//
// On a periodic input (one that is a smaller block repeated) several rows
// of the sorted rotation matrix equal rotation 0, and which of them the
// old sort reported was an accident of sort.Slice; the primary index is
// defined as the first of them (TestBWTPeriodicPrimary).
const (
	codecGolden   = "d8f67e89cdfa278b3da3f9e7444fab1d286e607c22f087c0f1f89769c9a6ce99"
	primaryGolden = "f0402701496364f8d0508ba62231ca4d7b757d0da5f1a5b4d7552f80766d402a"
)

// goldenInputs are NewInput's Bytes and Text at seeds 1-40 and seven
// sizes: 560 inputs, from one byte to three bzip2 blocks of a mix job.
func goldenInputs() [][]byte {
	var ins [][]byte
	for seed := uint64(1); seed <= 40; seed++ {
		for _, n := range []int{1, 2, 7, 64, 1000, 4096, 12288} {
			ins = append(ins, NewInput(seed).Bytes(n), NewInput(seed).Text(n))
		}
	}
	return ins
}

// naivePeriod returns the length of data's primitive root: the smallest p
// dividing len(data) such that data is data[:p] repeated.
func naivePeriod(data []byte) int {
	n := len(data)
	for p := 1; p < n; p++ {
		if n%p == 0 && bytes.Equal(data[p:], data[:n-p]) {
			return p
		}
	}
	return n
}

func hashBytes(h hash.Hash, b []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}

// TestCodecGolden proves the encoders' output byte-identical to the
// digests above.
func TestCodecGolden(t *testing.T) {
	codecs, primaries := sha256.New(), sha256.New()
	aperiodic := 0
	for _, in := range goldenInputs() {
		out, p := BWT(in)
		enc, p2 := Bzip2Like(in)
		for _, b := range [][]byte{out, enc, LZWEncode(in), HuffmanEncode(in), mtf(make([]byte, len(in)), in), appendRLE(nil, in)} {
			hashBytes(codecs, b)
		}
		if naivePeriod(in) == len(in) {
			aperiodic++
			var b [16]byte
			binary.LittleEndian.PutUint64(b[:8], uint64(p))
			binary.LittleEndian.PutUint64(b[8:], uint64(p2))
			primaries.Write(b[:])
		}
	}
	if got := hex.EncodeToString(codecs.Sum(nil)); got != codecGolden {
		t.Errorf("codec output digest %s, want %s", got, codecGolden)
	}
	if got := hex.EncodeToString(primaries.Sum(nil)); got != primaryGolden {
		t.Errorf("primary index digest over %d aperiodic inputs %s, want %s", aperiodic, got, primaryGolden)
	}
}

// inputGolden is one SHA-256 over every byte Input draws in the sequence
// below and the Source's next output after it, recorded on the
// one-draw-at-a-time generator before Bytes and Text were rewritten.
const inputGolden = "13065d0f7b39dd8f004d21627b3e053506922789d40769351028a1b85d1e5d3c"

// TestInputGolden pins the inputs of every mix job and the Source state
// each draw leaves: per seed 1-40, the mix workload's 16 children at
// 4 KiB (Bytes for each, then Text for every fourth, as internal/server
// draws them), then Bytes and Text at the sizes around Bytes's nine-byte
// head, each followed by the next Uint64.
func TestInputGolden(t *testing.T) {
	h := sha256.New()
	state := func(in *Input) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], in.r.Uint64())
		h.Write(b[:])
	}
	for seed := uint64(1); seed <= 40; seed++ {
		in := NewInput(seed)
		for i := range 16 {
			hashBytes(h, in.Bytes(4096))
			if i%4 == 0 {
				hashBytes(h, in.Text(4096))
			}
		}
		state(in)
		for _, n := range []int{0, 1, 8, 9, 10, 4095} {
			hashBytes(h, in.Bytes(n))
			state(in)
			hashBytes(h, in.Text(n))
			state(in)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != inputGolden {
		t.Errorf("input digest %s, want %s", got, inputGolden)
	}
	// Bytes's u>>11 < repeatBelow is Float64() < 0.6 at the boundary too.
	if x := uint64(repeatBelow); float64(x-1)/(1<<53) >= 0.6 || float64(x)/(1<<53) < 0.6 {
		t.Errorf("repeatBelow %d is not the first 53-bit draw with Float64() >= 0.6", x)
	}
}

// TestBWTPeriodicPrimary round-trips every periodic golden input, and
// holds the primary index of each to the definition above.
func TestBWTPeriodicPrimary(t *testing.T) {
	ins := append(goldenInputs(), []byte("aa"), bytes.Repeat([]byte("ab"), 500), bytes.Repeat([]byte("xyz"), 7))
	periodic := 0
	for _, in := range ins {
		if naivePeriod(in) == len(in) {
			continue
		}
		periodic++
		out, p := BWT(in)
		dec, err := UnBWT(out, p)
		if err != nil || !bytes.Equal(dec, in) {
			t.Fatalf("BWT round trip of periodic %.16q (%d bytes): %v", in, len(in), err)
		}
		// The rows equal to rotation 0 are the ones UnBWT inverts to data.
		if p > 0 {
			if prev, _ := UnBWT(out, p-1); bytes.Equal(prev, in) {
				t.Fatalf("BWT of %.16q (%d bytes): primary %d is not the first row equal to rotation 0", in, len(in), p)
			}
		}
	}
	if periodic < 4 {
		t.Fatalf("only %d periodic inputs", periodic)
	}
}
