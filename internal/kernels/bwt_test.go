package kernels

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"
)

// Blocks whose rotations share long prefixes, which keySort leaves to
// SA-IS: one long run, a Fibonacci word, the Thue-Morse word, and (ab)^k
// closed by a b.

func allAThenB(n int) []byte { return append(bytes.Repeat([]byte("a"), n-1), 'b') }

func fibonacciWord(n int) []byte {
	a, b := []byte("a"), []byte("ab")
	for len(b) < n {
		a, b = b, append(slices.Clip(b), a...)
	}
	return b[:n]
}

func thueMorse(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = 'a' + byte(bits.OnesCount(uint(i))&1)
	}
	return out
}

func abThenB(n int) []byte { return append(bytes.Repeat([]byte("ab"), (n-1)/2), 'b') }

// saisBWT is BWT through the SA-IS path alone, the reference the key sort
// is held to.
func saisBWT(data []byte) (out []byte, primary int) {
	p := primitive(data)
	sc := new(saisScratch)
	rows, k := sc.saisRotations(data[:p])
	return emitRows(nil, data, p, rows, k)
}

// keySortBWT is BWT through the key sort alone; ok is false if it gave up.
func keySortBWT(data []byte) (out []byte, primary int, ok bool) {
	p := primitive(data)
	sc := new(saisScratch)
	sc.reserve(p+1, 257)
	rows := sc.keySort(data[:p])
	if rows == nil {
		return nil, 0, false
	}
	out, primary = emitRows(nil, data, p, rows, 0)
	return out, primary, true
}

// TestBWTKeySortMatchesSAIS holds the two rotation sorts to the same
// output: seeded blocks take the key sort and equal the SA-IS path byte
// for byte; the long-prefix shapes take SA-IS, and equal the naive sort
// where it is affordable and the SA-IS path at 64 KiB.
func TestBWTKeySortMatchesSAIS(t *testing.T) {
	for _, n := range []int{4 << 10, 16 << 10, 64 << 10} {
		for seed := uint64(1); seed <= 32; seed++ {
			for kind, in := range map[string][]byte{"Text": NewInput(seed).Text(n), "Bytes": NewInput(seed).Bytes(n)} {
				got, gotP, ok := keySortBWT(in)
				if !ok {
					t.Fatalf("%s(%d) seed %d: the key sort gave up", kind, n, seed)
				}
				if want, wantP := saisBWT(in); !bytes.Equal(got, want) || gotP != wantP {
					t.Fatalf("%s(%d) seed %d: key sort and SA-IS differ (primary %d, %d)", kind, n, seed, gotP, wantP)
				}
			}
		}
	}
	for name, shape := range map[string]func(int) []byte{
		"allAThenB": allAThenB, "fibonacciWord": fibonacciWord, "thueMorse": thueMorse, "abThenB": abThenB,
	} {
		for _, n := range []int{1 << 10, 64 << 10} {
			in := shape(n)
			if _, _, ok := keySortBWT(in); ok {
				t.Errorf("%s(%d): the key sort did not give up", name, n)
			}
			want, wantP := saisBWT(in)
			if n <= 1<<10 {
				want, wantP = naiveBWT(in)
			}
			if got, gotP := BWT(in); !bytes.Equal(got, want) || gotP != wantP {
				t.Fatalf("%s(%d): BWT differs from the reference (primary %d, %d)", name, n, gotP, wantP)
			}
		}
	}
}
