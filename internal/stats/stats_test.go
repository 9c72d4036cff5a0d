package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMedianOdd(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd: got %v want 2", got)
	}
}

func TestMedianEven(t *testing.T) {
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even: got %v want 2.5", got)
	}
}

func TestMedianEmpty(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Fatalf("median empty: got %v want 0", got)
	}
	if _, err := MedianErr(nil); err != ErrEmpty {
		t.Fatalf("MedianErr empty: want ErrEmpty, got %v", err)
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{5, 1, 4}
	Median(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 4 {
		t.Fatalf("median mutated input: %v", in)
	}
}

// medianBySort is the reference MedianErr is held to: copy, sort with
// sort.Float64s, take the middle.
func medianBySort(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TestMedianMatchesSortReference checks MedianErr against medianBySort on
// every length from 1 to 200, across the stack-array bound, with
// duplicates, ±Inf and NaN. Results must be == or both NaN. Zeros are
// drawn only as +0: where +0 and −0 tie, the two sorts may order them
// differently and the median may differ in the sign of zero alone.
func TestMedianMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, 1, -1}
	draw := func(kind int) float64 {
		switch kind {
		case 0: // spread values, almost never equal
			return rng.NormFloat64() * 1e6
		case 1: // heavy duplicates
			return float64(rng.Intn(4))
		default: // duplicates mixed with specials
			if rng.Intn(4) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return float64(rng.Intn(8)) - 4
		}
	}
	for n := 1; n <= 200; n++ {
		for kind := 0; kind < 3; kind++ {
			for trial := 0; trial < 4; trial++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = draw(kind)
				}
				got, err := MedianErr(xs)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				want := medianBySort(xs)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("n=%d kind=%d: MedianErr=%v, sort reference=%v (input %v)", n, kind, got, want, xs)
				}
			}
		}
	}
}

// TestMedianSmallAllocs pins that a median of up to 64 samples — a slot's
// per-second series — allocates nothing.
func TestMedianSmallAllocs(t *testing.T) {
	for _, n := range []int{1, 2, 30, 64} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7) % n)
		}
		if allocs := testing.AllocsPerRun(100, func() { Median(xs) }); allocs != 0 {
			t.Fatalf("Median of %d samples: %v allocs, want 0", n, allocs)
		}
	}
}

func TestMeanAndStdev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("mean: got %v want 5", got)
	}
	if got := Stdev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("stdev: got %v want 2", got)
	}
}

func TestRSD(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := RSD(xs); !almostEqual(got, 0.4, 1e-12) {
		t.Fatalf("rsd: got %v want 0.4", got)
	}
	if got := RSD([]float64{0, 0}); got != 0 {
		t.Fatalf("rsd zero-mean: got %v want 0", got)
	}
}

func TestPercentileBounds(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := Percentile(xs, 0); got != 10 {
		t.Fatalf("p0: got %v", got)
	}
	if got := Percentile(xs, 100); got != 40 {
		t.Fatalf("p100: got %v", got)
	}
	if got := Percentile(xs, 50); got != 25 {
		t.Fatalf("p50: got %v want 25", got)
	}
	if got := Percentile(xs, 75); got != 32.5 {
		t.Fatalf("p75: got %v want 32.5", got)
	}
}

func TestPercentileSingleSample(t *testing.T) {
	if got := Percentile([]float64{7}, 75); got != 7 {
		t.Fatalf("single sample percentile: got %v", got)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 2}
	if Min(xs) != -1 || Max(xs) != 3 || Sum(xs) != 4 {
		t.Fatalf("min/max/sum: %v %v %v", Min(xs), Max(xs), Sum(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 || Sum(nil) != 0 {
		t.Fatal("empty min/max/sum should be 0")
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if got := c.Quantile(0.5); got != 3 {
		t.Fatalf("quantile 0.5: got %v want 3", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("quantile 0: got %v want 1", got)
	}
	if got := c.Quantile(1); got != 5 {
		t.Fatalf("quantile 1: got %v want 5", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("points: got %d want 5", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatalf("points not monotone: %v", pts)
		}
	}
	if pts[len(pts)-1][1] != 1 {
		t.Fatalf("last point fraction: got %v want 1", pts[len(pts)-1][1])
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Quantile(0.5) != 0 || c.Points(3) != nil || c.Len() != 0 {
		t.Fatal("empty CDF should return zeros")
	}
}

func TestBoxplot(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	b := NewBoxplot(xs)
	if b.N != 100 {
		t.Fatalf("N: got %d", b.N)
	}
	if !almostEqual(b.Median, 50.5, 1e-9) {
		t.Fatalf("median: got %v", b.Median)
	}
	if !almostEqual(b.Mean, 50.5, 1e-9) {
		t.Fatalf("mean: got %v", b.Mean)
	}
	if b.Q1 >= b.Median || b.Median >= b.Q3 || b.P5 >= b.Q1 || b.Q3 >= b.P95 {
		t.Fatalf("boxplot ordering violated: %+v", b)
	}
}

func TestBoxplotEmpty(t *testing.T) {
	b := NewBoxplot(nil)
	if b.N != 0 || b.Median != 0 {
		t.Fatalf("empty boxplot: %+v", b)
	}
}

func TestBinomialTailEdge(t *testing.T) {
	if got := BinomialTail(10, 0.5, 0); got != 1 {
		t.Fatalf("k=0: got %v", got)
	}
	if got := BinomialTail(10, 0.5, 11); got != 0 {
		t.Fatalf("k>n: got %v", got)
	}
	// Pr[B(1,0.5) >= 1] = 0.5
	if got := BinomialTail(1, 0.5, 1); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("B(1,0.5)>=1: got %v", got)
	}
}

func TestBinomialTailKnown(t *testing.T) {
	// Pr[B(3, 0.5) >= 2] = 3/8 + 1/8 = 0.5
	if got := BinomialTail(3, 0.5, 2); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("B(3,0.5)>=2: got %v", got)
	}
	// Pr[B(4, 0.25) >= 4] = 0.25^4
	if got := BinomialTail(4, 0.25, 4); !almostEqual(got, math.Pow(0.25, 4), 1e-12) {
		t.Fatalf("B(4,0.25)>=4: got %v", got)
	}
}

// The §5 claim: for an adversary that provides high capacity in a fraction
// q < 1/2 of slots and n BWAuths, the attack fails with probability ≥ 0.5,
// i.e. succeeds with probability ≤ 0.5.
func TestBinomialSecurityClaim(t *testing.T) {
	for _, n := range []int{3, 5, 7, 9} {
		for _, q := range []float64{0.1, 0.25, 0.4, 0.49} {
			succ := BinomialTail(n, q, (n+1)/2)
			if succ > 0.5 {
				t.Errorf("n=%d q=%v: success prob %v > 0.5", n, q, succ)
			}
		}
	}
}

func TestTotalVariationDistance(t *testing.T) {
	a := []float64{0.5, 0.5}
	b := []float64{1, 0}
	if got := TotalVariationDistance(a, b); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("tvd: got %v want 0.5", got)
	}
	if got := TotalVariationDistance(a, a); got != 0 {
		t.Fatalf("tvd self: got %v", got)
	}
}

func TestTotalVariationDistanceMismatchedLengths(t *testing.T) {
	a := []float64{0.5, 0.5}
	b := []float64{0.5}
	if got := TotalVariationDistance(a, b); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("tvd mismatched: got %v want 0.25", got)
	}
}

func TestNormalize(t *testing.T) {
	xs := []float64{1, 3}
	n := Normalize(xs)
	if !almostEqual(n[0], 0.25, 1e-12) || !almostEqual(n[1], 0.75, 1e-12) {
		t.Fatalf("normalize: %v", n)
	}
	if xs[0] != 1 {
		t.Fatal("normalize mutated input")
	}
	z := Normalize([]float64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("normalize zeros: %v", z)
	}
}

// Property: the median lies between min and max, and is permutation
// invariant.
func TestMedianPropertyQuick(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Median(clean)
		if m < Min(clean) || m > Max(clean) {
			return false
		}
		shuffled := append([]float64(nil), clean...)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return Median(shuffled) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is monotone non-decreasing and bounded in [0,1].
func TestCDFMonotoneQuick(t *testing.T) {
	f := func(xs []float64, probe []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		c := NewCDF(clean)
		sort.Float64s(probe)
		prev := 0.0
		for _, p := range probe {
			if math.IsNaN(p) {
				continue
			}
			v := c.At(p)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalized weights sum to 1 (when the input has positive sum).
func TestNormalizeSumsToOneQuick(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				clean = append(clean, math.Abs(x))
			}
		}
		n := Normalize(clean)
		total := Sum(clean)
		if total == 0 {
			return true
		}
		return almostEqual(Sum(n), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: TVD is symmetric and within [0, 1] for distributions.
func TestTVDSymmetricQuick(t *testing.T) {
	f := func(a, b []float64) bool {
		na := Normalize(absClean(a))
		nb := Normalize(absClean(b))
		d1 := TotalVariationDistance(na, nb)
		d2 := TotalVariationDistance(nb, na)
		return almostEqual(d1, d2, 1e-9) && d1 >= 0 && d1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func absClean(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
			out = append(out, math.Abs(x))
		}
	}
	return out
}
