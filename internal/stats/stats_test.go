package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean=%v", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("variance=%v", v)
	}
	if s := Stddev(xs); math.Abs(s-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("stddev=%v", s)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty stats nonzero")
	}
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-sample variance nonzero")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for q, want := range cases {
		if got := Quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Q(%v)=%v want %v", q, got, want)
		}
	}
	// Interpolation.
	if got := Quantile([]float64{0, 10}, 0.5); math.Abs(got-5) > 1e-12 {
		t.Fatalf("interpolated median %v", got)
	}
	// Input must not be mutated (Quantile sorts a copy).
	orig := []float64{3, 1, 2}
	Quantile(orig, 0.5)
	if orig[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
}

func TestQuantileWithinRange(t *testing.T) {
	check := func(xs []float64, q float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q = math.Abs(q)
		q -= math.Floor(q)
		got := Quantile(xs, q)
		return got >= Min(xs)-1e-9 && got <= Max(xs)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSample(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3} {
		s.Add(x)
	}
	if s.N() != 3 || s.Mean() != 2 {
		t.Fatalf("sample: %v", s.String())
	}
	if len(s.Values()) != 3 {
		t.Fatal("values")
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}
