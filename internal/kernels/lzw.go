package kernels

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// LZW implements Lempel-Ziv-Welch dictionary compression over uint16
// codes (dictionary capped at 65535 entries, then frozen), the classic
// variant used by the LZW benchmark. Entry c >= 256 is an earlier entry
// (its prefix code) plus one byte, so both directions keep the dictionary
// as code tables and never build the strings.

// lzwScratch holds the encoder's hash table and the decoder's code tables.
type lzwScratch struct {
	table       []uint64
	prefix      []uint16
	length      []int32
	last, first []byte
}

var lzwPool = sync.Pool{New: func() any { return new(lzwScratch) }}

// LZWEncode compresses data into a stream of 16-bit codes (big-endian).
func LZWEncode(data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	sc := lzwPool.Get().(*lzwScratch)
	defer lzwPool.Put(sc)
	// An open-addressed map from prefix<<8|byte + 1 (0 marks a free slot)
	// to the entry's code, packed as key<<16 | code, at most half full.
	size := 1 << bits.Len(uint(2*min(len(data), 65535-256)-1))
	sc.table = grow(sc.table, size)
	table := sc.table
	clear(table)
	shift := 32 - bits.Len(uint(size-1))
	out := make([]byte, 0, len(data))
	next := uint64(256)
	w := uint32(data[0])
	for _, b := range data[1:] {
		key := (w<<8 | uint32(b)) + 1
		i := key * 0x9E3779B1 >> shift
		for table[i] != 0 && uint32(table[i]>>16) != key {
			i = (i + 1) & uint32(size-1)
		}
		if table[i] != 0 {
			w = uint32(uint16(table[i]))
			continue
		}
		out = append(out, byte(w>>8), byte(w))
		if next < 65535 {
			table[i] = uint64(key)<<16 | next
			next++
		}
		w = uint32(b)
	}
	return append(out, byte(w>>8), byte(w))
}

// LZWDecode inverts LZWEncode.
func LZWDecode(enc []byte) ([]byte, error) {
	if len(enc) == 0 {
		return nil, nil
	}
	if len(enc)%2 != 0 {
		return nil, fmt.Errorf("kernels: LZW stream has odd length")
	}
	codes := len(enc) / 2
	code := func(i int) int { return int(enc[2*i])<<8 | int(enc[2*i+1]) }
	// Each code after the first adds at most one entry.
	limit := 256 + min(codes, 65535-256)
	sc := lzwPool.Get().(*lzwScratch)
	defer lzwPool.Put(sc)
	sc.prefix, sc.length = grow(sc.prefix, limit), grow(sc.length, limit)
	sc.last, sc.first = grow(sc.last, limit), grow(sc.first, limit)
	prefix, length, last, first := sc.prefix, sc.length, sc.last, sc.first
	for c := range 256 {
		length[c], last[c], first[c] = 1, byte(c), byte(c)
	}
	// emit appends entry c by walking its prefixes from the last byte back.
	emit := func(out []byte, c int) []byte {
		start := len(out)
		out = slices.Grow(out, int(length[c]))[:start+int(length[c])]
		for j := len(out) - 1; j > start; j-- {
			out[j] = last[c]
			c = int(prefix[c])
		}
		out[start] = byte(c)
		return out
	}
	prev := code(0)
	if prev >= 256 {
		return nil, fmt.Errorf("kernels: invalid first LZW code %d", prev)
	}
	out := append(make([]byte, 0, 2*len(enc)), byte(prev))
	size := 256
	for i := 1; i < codes; i++ {
		c := code(i)
		// The encoder never sends 65535: it sends only codes it has.
		if c > size || c == 65535 {
			return nil, fmt.Errorf("kernels: invalid LZW code %d", c)
		}
		// c is a known entry, or (the KwKwK case) the one being added:
		// prev's entry plus its own first byte.
		fc := first[prev]
		if c < size {
			out, fc = emit(out, c), first[c]
		} else {
			out = append(emit(out, prev), fc)
		}
		if size < 65535 {
			prefix[size], last[size], first[size], length[size] = uint16(prev), fc, first[prev], length[prev]+1
			size++
		}
		prev = c
	}
	return out, nil
}
