package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestReseed(t *testing.T) {
	r := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("reseeded stream diverged at %d: %d != %d", i, got, first[i])
		}
	}
}

// TestFillMatchesUint64 holds Fill to repeated Uint64: the same outputs
// and the same state after, at lengths 0 to 40.
func TestFillMatchesUint64(t *testing.T) {
	a, b := New(31), New(31)
	for n := range 41 {
		got := make([]uint64, n)
		a.Fill(got)
		for i, v := range got {
			if want := b.Uint64(); v != want {
				t.Fatalf("Fill of %d: output %d is %#x, Uint64 gave %#x", n, i, v, want)
			}
		}
		if a.s != b.s {
			t.Fatalf("Fill of %d left state %x, Uint64 %x", n, a.s, b.s)
		}
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	var sum, sumsq float64
	const n = 200000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v too far from 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	check := func(n uint8) bool {
		p := r.Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(23)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, x := range xs {
		sum2 += x
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed elements: %v", xs)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(29)
	a := root.Split()
	b := root.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams overlapped %d times", same)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
