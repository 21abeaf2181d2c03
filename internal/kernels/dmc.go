package kernels

import "fmt"

// Dynamic Markov Coding (Cormack & Horspool): a bit-level adaptive model
// whose state machine grows by cloning, driving a binary arithmetic coder
// (the textbook CACM-87 design with E1/E2/E3 renormalization). This is
// the DMC benchmark's core computation.

type dmcState struct {
	next  [2]int32
	count [2]float32
}

type dmcModel struct {
	states []dmcState
	cur    int32
	limit  int
}

// newDMCModel builds the initial braid: a ring of 256 states tracking the
// last 8 bits, each with both transitions.
func newDMCModel(limit int) *dmcModel {
	m := &dmcModel{limit: limit}
	m.states = make([]dmcState, 256)
	for i := range m.states {
		for b := 0; b < 2; b++ {
			m.states[i].next[b] = int32((i*2 + b) % 256)
			m.states[i].count[b] = 0.2
		}
	}
	return m
}

// p1Fixed returns the probability of a 1 bit in 16-bit fixed point,
// clamped away from 0 and 1. Fixed point keeps encoder and decoder
// arithmetic bit-identical.
func (m *dmcModel) p1Fixed() uint32 {
	s := &m.states[m.cur]
	p := uint32(float64(s.count[1]) / float64(s.count[0]+s.count[1]) * 65536)
	if p < 64 {
		p = 64
	}
	if p > 65536-64 {
		p = 65536 - 64
	}
	return p
}

// update advances the model on bit b, cloning the successor state when
// the traversed transition dominates the successor's traffic.
func (m *dmcModel) update(b int) {
	s := &m.states[m.cur]
	s.count[b]++
	next := s.next[b]
	ns := &m.states[next]
	trans := s.count[b]
	total := ns.count[0] + ns.count[1]
	if trans > 2 && total > trans+2 && len(m.states) < m.limit {
		// Clone: the new state inherits the successor's transitions with
		// counts split proportionally to the traffic we contribute.
		ratio := trans / total
		clone := dmcState{next: ns.next}
		clone.count[0] = ns.count[0] * ratio
		clone.count[1] = ns.count[1] * ratio
		ns.count[0] -= clone.count[0]
		ns.count[1] -= clone.count[1]
		m.states = append(m.states, clone)
		next = int32(len(m.states) - 1)
		s.next[b] = next
		// Re-resolve s: append may have moved the backing array.
		m.states[m.cur].next[b] = next
	}
	m.cur = next
}

const (
	acBits    = 32
	acHalf    = uint64(1) << (acBits - 1)
	acQuarter = uint64(1) << (acBits - 2)
	acMax     = (uint64(1) << acBits) - 1
)

// split returns the boundary between the 1-region [low, mid] and the
// 0-region (mid, high] for probability p1 (16-bit fixed point).
func acSplit(low, high uint64, p1 uint32) uint64 {
	span := high - low + 1
	mid := low + (span*uint64(p1))>>16 - 1
	if mid < low {
		mid = low
	}
	if mid >= high {
		mid = high - 1
	}
	return mid
}

// bitWriter appends bits to buf, most significant first.
type bitWriter struct {
	buf  []byte
	nbit uint
}

func (w *bitWriter) writeBit(bit uint32) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	w.buf[w.nbit/8] |= byte(bit) << (7 - w.nbit%8)
	w.nbit++
}

type arithEncoder struct {
	low, high uint64
	pending   int
	w         bitWriter
}

func newArithEncoder() *arithEncoder {
	return &arithEncoder{high: acMax}
}

func (e *arithEncoder) emit(bit uint32) {
	e.w.writeBit(bit)
	for ; e.pending > 0; e.pending-- {
		e.w.writeBit(bit ^ 1)
	}
}

func (e *arithEncoder) encode(bit int, p1 uint32) {
	mid := acSplit(e.low, e.high, p1)
	if bit == 1 {
		e.high = mid
	} else {
		e.low = mid + 1
	}
	for {
		switch {
		case e.high < acHalf:
			e.emit(0)
		case e.low >= acHalf:
			e.emit(1)
			e.low -= acHalf
			e.high -= acHalf
		case e.low >= acQuarter && e.high < 3*acQuarter:
			e.pending++
			e.low -= acQuarter
			e.high -= acQuarter
		default:
			return
		}
		e.low <<= 1
		e.high = e.high<<1 | 1
	}
}

func (e *arithEncoder) finish() []byte {
	// Flush: disambiguate the final interval.
	e.pending++
	if e.low < acQuarter {
		e.emit(0)
	} else {
		e.emit(1)
	}
	// Pad so the decoder can always read.
	for i := 0; i < acBits; i++ {
		e.w.writeBit(0)
	}
	return e.w.buf
}

type arithDecoder struct {
	low, high uint64
	value     uint64
	in        []byte
	nbit      int
}

func newArithDecoder(in []byte) *arithDecoder {
	d := &arithDecoder{high: acMax, in: in}
	for i := 0; i < acBits; i++ {
		d.value = d.value<<1 | uint64(d.bit())
	}
	return d
}

// bit returns the next input bit, most significant first; 0 past the end.
func (d *arithDecoder) bit() uint32 {
	i := d.nbit
	d.nbit++
	if i/8 >= len(d.in) {
		return 0
	}
	return uint32(d.in[i/8]>>(7-i%8)) & 1
}

func (d *arithDecoder) decode(p1 uint32) int {
	mid := acSplit(d.low, d.high, p1)
	var bit int
	if d.value <= mid {
		bit = 1
		d.high = mid
	} else {
		d.low = mid + 1
	}
	for {
		switch {
		case d.high < acHalf:
			// nothing
		case d.low >= acHalf:
			d.low -= acHalf
			d.high -= acHalf
			d.value -= acHalf
		case d.low >= acQuarter && d.high < 3*acQuarter:
			d.low -= acQuarter
			d.high -= acQuarter
			d.value -= acQuarter
		default:
			return bit
		}
		d.low <<= 1
		d.high = d.high<<1 | 1
		d.value = d.value<<1 | uint64(d.bit())
	}
}

// DMCEncode compresses data with dynamic Markov coding. maxStates bounds
// model growth (e.g. 1<<16).
func DMCEncode(data []byte, maxStates int) []byte {
	m := newDMCModel(maxStates)
	e := newArithEncoder()
	for _, byt := range data {
		for i := 7; i >= 0; i-- {
			bit := int(byt>>uint(i)) & 1
			e.encode(bit, m.p1Fixed())
			m.update(bit)
		}
	}
	return e.finish()
}

// DMCDecode inverts DMCEncode; n is the original length.
func DMCDecode(enc []byte, n, maxStates int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("kernels: negative length")
	}
	m := newDMCModel(maxStates)
	d := newArithDecoder(enc)
	out := make([]byte, n)
	for j := 0; j < n; j++ {
		var byt byte
		for i := 7; i >= 0; i-- {
			bit := d.decode(m.p1Fixed())
			m.update(bit)
			if bit == 1 {
				byt |= 1 << uint(i)
			}
		}
		out[j] = byt
	}
	return out, nil
}
