package kernels

import (
	"container/heap"
	"fmt"
)

// Canonical Huffman coding: the entropy stage of Bzip2-style compressors.
// The encoded stream stores 256 code lengths followed by the bit-packed
// payload, so decode needs no side channel.

type huffNode struct {
	freq        int
	sym         int // -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].sym < h[j].sym // deterministic tie-break
}
func (h huffHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x any)   { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() any     { o := *h; n := len(o); v := o[n-1]; *h = o[:n-1]; return v }

// huffLengths computes code lengths for each byte value from frequencies.
func huffLengths(data []byte) [256]uint8 {
	var lengths [256]uint8
	var freq [256]int
	for _, b := range data {
		freq[b]++
	}
	// The at most 511 nodes of the tree, in one allocation.
	pool := make([]huffNode, 0, 511)
	node := func(n huffNode) *huffNode {
		pool = append(pool, n)
		return &pool[len(pool)-1]
	}
	h := &huffHeap{}
	*h = make(huffHeap, 0, 256) // at most one node per symbol
	for s, f := range freq {
		if f > 0 {
			heap.Push(h, node(huffNode{freq: f, sym: s}))
		}
	}
	if h.Len() == 0 {
		return lengths
	}
	if h.Len() == 1 {
		lengths[(*h)[0].sym] = 1
		return lengths
	}
	for h.Len() > 1 {
		a := heap.Pop(h).(*huffNode)
		b := heap.Pop(h).(*huffNode)
		heap.Push(h, node(huffNode{freq: a.freq + b.freq, sym: -1, left: a, right: b}))
	}
	root := heap.Pop(h).(*huffNode)
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.sym >= 0 {
			lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// maxCodeLen bounds the code lengths a stream may declare.
const maxCodeLen = 48

// canonical is a canonical code: the codes of one length are consecutive
// in symbol order, the first one after the length before's last, doubled.
type canonical struct {
	codes        [256]uint64
	first, count [maxCodeLen + 1]uint64 // per length
	offset       [maxCodeLen + 1]int    // per length, into syms
	syms         [256]byte              // by (length, symbol)
}

// canonicalCodes fills t from code lengths. It fails on a length over
// maxCodeLen and on more codes of one length than a prefix code has room for.
func canonicalCodes(lengths *[256]uint8, t *canonical) error {
	for _, l := range lengths {
		if l > maxCodeLen {
			return fmt.Errorf("kernels: huffman code length %d over %d", l, maxCodeLen)
		}
		t.count[l]++
	}
	t.count[0] = 0
	code, n := uint64(0), 0
	for l := 1; l <= maxCodeLen; l++ {
		code = (code + t.count[l-1]) << 1
		if code+t.count[l] > 1<<l {
			return fmt.Errorf("kernels: huffman code lengths over-subscribed at length %d", l)
		}
		t.first[l], t.offset[l] = code, n
		n += int(t.count[l])
	}
	next := t.offset
	for s, l := range lengths {
		if l > 0 {
			t.syms[next[l]] = byte(s)
			t.codes[s] = t.first[l] + uint64(next[l]-t.offset[l])
			next[l]++
		}
	}
	return nil
}

// longCode returns the length and symbol of the code longer than
// huffLookupBits that prefixes acc, or length 0 if no code does.
func (t *canonical) longCode(acc uint64) (int, byte) {
	for l := huffLookupBits + 1; l <= maxCodeLen; l++ {
		// Unmatched at every shorter length, the prefix is >= first[l].
		if d := acc>>(64-l) - t.first[l]; d < t.count[l] {
			return l, t.syms[t.offset[l]+int(d)]
		}
	}
	return 0, 0
}

// HuffmanEncode compresses data with canonical Huffman coding. The header
// is 256 code-length bytes plus a 4-byte big-endian symbol count; the
// codes follow most significant bit first, the last byte zero-padded.
func HuffmanEncode(data []byte) []byte {
	lengths := huffLengths(data)
	var t canonical
	_ = canonicalCodes(&lengths, &t) // lengths of at most 34 bits on 16 MiB
	out := make([]byte, 0, 260+len(data)/2)
	out = append(out, lengths[:]...)
	n := len(data)
	out = append(out, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	// acc holds nacc < 8 pending bits between symbols, so one code of at
	// most maxCodeLen bits always fits.
	var acc, nacc uint64
	for _, b := range data {
		acc = acc<<lengths[b] | t.codes[b]
		nacc += uint64(lengths[b])
		for nacc >= 8 {
			nacc -= 8
			out = append(out, byte(acc>>nacc))
		}
	}
	if nacc > 0 {
		out = append(out, byte(acc<<(8-nacc)))
	}
	return out
}

// huffLookupBits is how many bits HuffmanDecode resolves in one table
// lookup: every code that long or shorter.
const huffLookupBits = 10

// HuffmanDecode inverts HuffmanEncode. It looks the next huffLookupBits
// bits up in a table of the codes that short, and checks a longer code
// against each length's range of codes, the shortest first.
func HuffmanDecode(enc []byte) ([]byte, error) { return huffmanDecode(nil, enc) }

// huffmanDecode is HuffmanDecode writing its output into dst, grown to fit.
func huffmanDecode(dst, enc []byte) ([]byte, error) {
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
	if n > nbits-260*8 { // every symbol takes at least one bit
		return nil, fmt.Errorf("kernels: huffman stream truncated")
	}
	// lookup[b] is sym | length<<8 for the code of at most huffLookupBits
	// bits that prefixes b, 0 if none does: the codes are prefix-free.
	var lookup [1 << huffLookupBits]uint16
	for s, l := range lengths {
		if l > 0 && l <= huffLookupBits {
			pad := huffLookupBits - l
			row := lookup[t.codes[s]<<pad:][:1<<pad]
			for j := range row {
				row[j] = uint16(l)<<8 | uint16(s)
			}
		}
	}
	out := grow(dst, n)
	// acc holds nacc >= maxCodeLen bits from pos on, most significant
	// first, zeros past the stream's end. A code that reaches past the end
	// or is not one in 48 bits fails where the bit-at-a-time decoder
	// stopped reading: at the end or 48 bits on.
	var acc uint64
	pos, next, nacc := 260*8, 260, 0
	for i := range out {
		for ; nacc <= 56; nacc += 8 {
			if next < len(enc) {
				acc |= uint64(enc[next]) << (56 - nacc)
			}
			next++
		}
		e := lookup[acc>>(64-huffLookupBits)]
		l, sym := int(e>>8), byte(e)
		if l == 0 {
			l, sym = t.longCode(acc)
		}
		if l == 0 || pos+l > nbits {
			return nil, fmt.Errorf("kernels: huffman code at bit %d invalid or truncated", min(pos+maxCodeLen, nbits))
		}
		out[i] = sym
		acc <<= l
		nacc -= l
		pos += l
	}
	return out, nil
}

// Bzip2Like runs the full Bzip2-style block pipeline: BWT, MTF, RLE,
// Huffman. It returns the compressed block and the metadata needed by
// Bzip2LikeDecode.
func Bzip2Like(data []byte) (enc []byte, primary int) {
	sc := bzPool.Get().(*bzScratch)
	defer bzPool.Put(sc)
	sc.block, primary = bwt(sc.block, data)
	sc.runs = appendRLE(sc.runs[:0], mtf(sc.block, sc.block))
	return HuffmanEncode(sc.runs), primary
}

// Bzip2LikeDecode inverts Bzip2Like.
func Bzip2LikeDecode(enc []byte, primary int) ([]byte, error) {
	sc := bzPool.Get().(*bzScratch)
	defer bzPool.Put(sc)
	var err error
	if sc.runs, err = huffmanDecode(sc.runs, enc); err != nil {
		return nil, err
	}
	if sc.block, err = unRLE(sc.block, sc.runs); err != nil {
		return nil, err
	}
	return sc.unBWT(unMTF(sc.block, sc.block), primary)
}
