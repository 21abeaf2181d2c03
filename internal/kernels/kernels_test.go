package kernels

import (
	"bytes"
	"crypto/md5"
	"crypto/sha1"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBWTRoundTrip(t *testing.T) {
	cases := [][]byte{
		[]byte("banana"),
		[]byte("abracadabra"),
		[]byte("mississippi river runs deep"),
		{},
		{0},
		bytes.Repeat([]byte("ab"), 500),
		NewInput(1).Bytes(4096),
	}
	for _, c := range cases {
		enc, p := BWT(c)
		dec, err := UnBWT(enc, p)
		if err != nil {
			t.Fatalf("UnBWT(%q): %v", c, err)
		}
		if !bytes.Equal(dec, c) {
			t.Fatalf("BWT roundtrip failed for %q: got %q", c, dec)
		}
	}
}

func TestBWTKnownVector(t *testing.T) {
	// The classic example: BWT of "banana" (full rotations) is "nnbaaa".
	enc, _ := BWT([]byte("banana"))
	if string(enc) != "nnbaaa" {
		t.Fatalf("BWT(banana)=%q want nnbaaa", enc)
	}
}

func TestUnBWTBadPrimary(t *testing.T) {
	if _, err := UnBWT([]byte("abc"), 5); err == nil {
		t.Fatal("out-of-range primary accepted")
	}
}

func TestBWTRoundTripProperty(t *testing.T) {
	check := func(data []byte) bool {
		if len(data) > 2000 {
			data = data[:2000]
		}
		enc, p := BWT(data)
		dec, err := UnBWT(enc, p)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFRoundTrip(t *testing.T) {
	check := func(data []byte) bool {
		return bytes.Equal(unMTF(make([]byte, len(data)), mtf(make([]byte, len(data)), data)), data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFConcentratesSmallValues(t *testing.T) {
	// On repetitive input, MTF output should be mostly small values.
	data := bytes.Repeat([]byte("aaabbbccc"), 100)
	enc := mtf(make([]byte, len(data)), data)
	small := 0
	for _, b := range enc {
		if b < 4 {
			small++
		}
	}
	if float64(small)/float64(len(enc)) < 0.9 {
		t.Fatalf("MTF did not concentrate: %d/%d small", small, len(enc))
	}
}

func TestRLERoundTrip(t *testing.T) {
	check := func(data []byte) bool {
		dec, err := unRLE(nil, appendRLE(nil, data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := unRLE(nil, []byte{1}); err == nil {
		t.Fatal("odd RLE stream accepted")
	}
	if _, err := unRLE(nil, []byte{0, 'x'}); err == nil {
		t.Fatal("zero-run RLE accepted")
	}
}

func TestRLECompressesRuns(t *testing.T) {
	data := bytes.Repeat([]byte{'x'}, 1000)
	if enc := appendRLE(nil, data); len(enc) >= len(data)/50 {
		t.Fatalf("RLE of a pure run too large: %d", len(enc))
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	cases := [][]byte{
		[]byte("hello huffman"),
		bytes.Repeat([]byte("abc"), 1000),
		NewInput(2).Text(5000),
		{42},
	}
	for _, c := range cases {
		dec, err := HuffmanDecode(HuffmanEncode(c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, c) {
			t.Fatalf("huffman roundtrip failed (%d bytes)", len(c))
		}
	}
}

func TestHuffmanRoundTripProperty(t *testing.T) {
	check := func(data []byte) bool {
		dec, err := HuffmanDecode(HuffmanEncode(data))
		if len(data) == 0 {
			return err == nil && len(dec) == 0
		}
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanCompresses(t *testing.T) {
	data := NewInput(3).Text(20000) // 7-symbol alphabet => ~3 bits/byte
	enc := HuffmanEncode(data)
	if len(enc) > len(data)/2+300 {
		t.Fatalf("huffman did not compress: %d -> %d", len(data), len(enc))
	}
}

func TestHuffmanDecodeErrors(t *testing.T) {
	if _, err := HuffmanDecode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short stream accepted")
	}
}

func TestBzip2LikeRoundTrip(t *testing.T) {
	data := NewInput(4).Text(4096)
	enc, p := Bzip2Like(data)
	dec, err := Bzip2LikeDecode(enc, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("bzip2-like roundtrip failed")
	}
	if len(enc) >= len(data) {
		t.Fatalf("bzip2-like did not compress: %d -> %d", len(data), len(enc))
	}
}

func TestLZWRoundTrip(t *testing.T) {
	cases := [][]byte{
		[]byte("TOBEORNOTTOBEORTOBEORNOT"),
		NewInput(5).Text(10000),
		bytes.Repeat([]byte{'z'}, 5000),
		{},
		{7},
	}
	for _, c := range cases {
		dec, err := LZWDecode(LZWEncode(c))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, c) {
			t.Fatalf("lzw roundtrip failed (%d bytes)", len(c))
		}
	}
}

func TestLZWRoundTripProperty(t *testing.T) {
	check := func(data []byte) bool {
		dec, err := LZWDecode(LZWEncode(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLZWCompresses(t *testing.T) {
	data := NewInput(6).Text(20000)
	enc := LZWEncode(data)
	if len(enc) >= len(data) {
		t.Fatalf("lzw did not compress text: %d -> %d", len(data), len(enc))
	}
}

func TestLZWDecodeErrors(t *testing.T) {
	if _, err := LZWDecode([]byte{0}); err == nil {
		t.Fatal("odd stream accepted")
	}
	if _, err := LZWDecode([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("invalid first code accepted")
	}
}

func TestDMCRoundTrip(t *testing.T) {
	cases := [][]byte{
		[]byte("dynamic markov coding"),
		NewInput(7).Bytes(3000),
		bytes.Repeat([]byte("xyz"), 500),
		{},
	}
	for _, c := range cases {
		enc := DMCEncode(c, 1<<14)
		dec, err := DMCDecode(enc, len(c), 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, c) {
			t.Fatalf("dmc roundtrip failed (%d bytes)", len(c))
		}
	}
}

func TestDMCRoundTripProperty(t *testing.T) {
	check := func(data []byte) bool {
		if len(data) > 1000 {
			data = data[:1000]
		}
		enc := DMCEncode(data, 1<<12)
		dec, err := DMCDecode(enc, len(data), 1<<12)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// dmcStates is the number of states the DMC model grows to on data.
func dmcStates(data []byte, maxStates int) int {
	m := newDMCModel(maxStates)
	for _, byt := range data {
		for i := 7; i >= 0; i-- {
			m.update(int(byt>>uint(i)) & 1)
		}
	}
	return len(m.states)
}

func TestDMCCompressesAndGrows(t *testing.T) {
	data := NewInput(8).Bytes(20000) // highly repetitive
	enc := DMCEncode(data, 1<<16)
	if len(enc) >= len(data)*3/4 {
		t.Fatalf("dmc did not compress repetitive input: %d -> %d", len(data), len(enc))
	}
	if s := dmcStates(data, 1<<16); s <= 256 {
		t.Fatalf("dmc model never cloned: %d states", s)
	}
	// State growth respects the cap.
	if s := dmcStates(data, 300); s > 300 {
		t.Fatalf("dmc exceeded state cap: %d", s)
	}
}

func TestMD5AgainstStdlib(t *testing.T) {
	check := func(data []byte) bool {
		return MD5Sum(data) == md5.Sum(data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// RFC 1321 vectors.
	vectors := map[string]string{
		"":    "d41d8cd98f00b204e9800998ecf8427e",
		"abc": "900150983cd24fb0d6963f7d28e17f72",
	}
	for in := range vectors {
		got := MD5Sum([]byte(in))
		want := md5.Sum([]byte(in))
		if got != want {
			t.Fatalf("MD5(%q) mismatch", in)
		}
	}
}

func TestSHA1AgainstStdlib(t *testing.T) {
	check := func(data []byte) bool {
		return SHA1Sum(data) == sha1.Sum(data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Long multi-block input.
	long := NewInput(9).Bytes(100000)
	if SHA1Sum(long) != sha1.Sum(long) {
		t.Fatal("SHA1 mismatch on long input")
	}
}

func TestGAImprovesFitness(t *testing.T) {
	is := NewIsland(GAConfig{Pop: 64, Genome: 8, Generations: 30, Seed: 1})
	before := is.Best()
	is.Evolve()
	after := is.Best()
	if after > before {
		t.Fatalf("GA got worse: %v -> %v (elitism broken)", before, after)
	}
	if after >= before*0.9 {
		t.Fatalf("GA barely improved: %v -> %v", before, after)
	}
}

func TestArchipelagoMigration(t *testing.T) {
	a := NewArchipelago(4, GAConfig{Pop: 16, Genome: 8, Generations: 5}, 3)
	if len(a.Islands) != 4 {
		t.Fatal("wrong island count")
	}
	// Graded island sizes (the workload-class spread).
	if a.Islands[3].cfg.Pop <= a.Islands[0].cfg.Pop {
		t.Fatal("island sizes not graded")
	}
	before := a.Best()
	for round := 0; round < 3; round++ {
		for _, is := range a.Islands {
			is.Evolve()
		}
		a.Migrate()
	}
	if a.Best() > before {
		t.Fatalf("archipelago got worse: %v -> %v", before, a.Best())
	}
}

func TestChunkBoundariesStable(t *testing.T) {
	in := NewInput(10)
	data := in.Bytes(100000)
	cfg := ChunkerConfig{}
	chunks := Chunk(data, cfg)
	if len(chunks) < 10 {
		t.Fatalf("too few chunks: %d", len(chunks))
	}
	// Chunks reassemble to the input.
	var re []byte
	for _, c := range chunks {
		re = append(re, c...)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("chunks do not cover input")
	}
	// Content-defined: inserting a prefix shifts data but most boundaries
	// (by content) survive; identical suffixes yield identical chunks.
	shifted := append([]byte("PREFIX-PREFIX-PREFIX"), data...)
	chunks2 := Chunk(shifted, cfg)
	set := map[string]bool{}
	for _, c := range chunks {
		set[string(c)] = true
	}
	common := 0
	for _, c := range chunks2 {
		if set[string(c)] {
			common++
		}
	}
	if float64(common) < 0.5*float64(len(chunks)) {
		t.Fatalf("content-defined chunking unstable: %d/%d chunks survived a prefix shift",
			common, len(chunks))
	}
	// Size bounds hold (except possibly the tail).
	c := cfg.withDefaults()
	for i, ch := range chunks {
		if len(ch) > c.MaxSize {
			t.Fatalf("chunk %d exceeds max size: %d", i, len(ch))
		}
		if i < len(chunks)-1 && len(ch) < c.MinSize {
			t.Fatalf("chunk %d below min size: %d", i, len(ch))
		}
	}
}

func TestDedupStore(t *testing.T) {
	in := NewInput(11)
	block := in.Bytes(20000)
	// Duplicate the data: second copy should dedup almost entirely.
	data := append(append([]byte{}, block...), block...)
	s := NewStore()
	for _, c := range Chunk(data, ChunkerConfig{}) {
		s.Put(c)
	}
	if s.DupChunks == 0 {
		t.Fatal("no duplicate chunks found in duplicated data")
	}
	// Nearly every second-copy chunk must dedup (the junction chunk and
	// re-sync chunk may not).
	if float64(s.DupChunks) < 0.4*float64(s.DupChunks+s.UniqueChunks) {
		t.Fatalf("only %d/%d chunks deduplicated", s.DupChunks, s.DupChunks+s.UniqueChunks)
	}
	// Stored bytes ≈ one copy compressed with LZW (which has real
	// overhead on sub-KB chunks), so the ratio is modest but > 1.4.
	if s.DedupRatio() < 1.4 {
		t.Fatalf("dedup ratio %v too low for fully duplicated input", s.DedupRatio())
	}
	re, err := s.Reassemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("reassembled stream differs")
	}
}

func TestFerretPipeline(t *testing.T) {
	const n = 12
	ix := &Index{}
	imgs := make([]*Image, n)
	for i := 0; i < n; i++ {
		imgs[i] = GenImage(48, 48, uint64(i))
		seg := Segment(imgs[i], 4)
		f := Extract(imgs[i], seg, 4)
		ix.Add(i, f)
	}
	if ix.Len() != n {
		t.Fatalf("index size %d", ix.Len())
	}
	// Querying with an indexed image must rank itself first.
	for i := 0; i < n; i++ {
		q := Extract(imgs[i], Segment(imgs[i], 4), 4)
		top := ix.Rank(q, 3)
		if len(top) != 3 {
			t.Fatalf("Rank returned %d", len(top))
		}
		if top[0].ID != i {
			t.Fatalf("self-query ranked %d first, want %d (score %v)", top[0].ID, i, top[0].Score)
		}
		if top[0].Score < 0.999 {
			t.Fatalf("self-similarity %v < 1", top[0].Score)
		}
	}
}

func TestCosineProperties(t *testing.T) {
	a := &Feature{Hist: []float64{1, 2, 3}}
	b := &Feature{Hist: []float64{2, 4, 6}}
	if c := Cosine(a, b); c < 0.999 {
		t.Fatalf("colinear cosine %v", c)
	}
	z := &Feature{Hist: []float64{0, 0, 0}}
	if c := Cosine(a, z); c != 0 {
		t.Fatalf("zero-vector cosine %v", c)
	}
}

func TestInputGenerators(t *testing.T) {
	in := NewInput(12)
	b := in.Bytes(1000)
	if len(b) != 1000 {
		t.Fatal("Bytes length")
	}
	tx := in.Text(1000)
	if len(tx) != 1000 {
		t.Fatal("Text length")
	}
	// Deterministic across instances with the same seed.
	b2 := NewInput(12).Bytes(1000)
	if !bytes.Equal(b, b2) {
		t.Fatal("input generator not deterministic")
	}
}

// TestKernelsConcurrent runs the mix job's three child kinds from 8
// goroutines at once, each on its own inputs, and holds every result to a
// serial run's: no two calls ever share pooled scratch.
func TestKernelsConcurrent(t *testing.T) {
	data, text := mixInputs()
	child := func(i int) string {
		enc, p := Bzip2Like(text[i])
		dec, err := Bzip2LikeDecode(enc, p)
		if err != nil || !bytes.Equal(dec, text[i]) {
			return fmt.Sprintf("bzip2 round trip of input %d failed: %v", i, err)
		}
		lzw := LZWEncode(data[i])
		if dec, err := LZWDecode(lzw); err != nil || !bytes.Equal(dec, data[i]) {
			return fmt.Sprintf("LZW round trip of input %d failed: %v", i, err)
		}
		return fmt.Sprintf("%x %d %x %x %x", enc, p, lzw, SHA1Sum(data[i]), MD5Sum(data[i]))
	}
	want := make([]string, len(data))
	for i := range want {
		want[i] = child(i)
	}
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(data)) // one per child run at most
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				for i := (w + r) % workers; i < len(data); i += workers {
					if got := child(i); got != want[i] {
						errs <- fmt.Sprintf("worker %d, round %d, input %d: %.80s, serial %.80s", w, r, i, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
