// Package stats provides the small statistical toolkit used throughout the
// FlashFlow reproduction: medians, percentiles, CDFs, relative standard
// deviation (Eq. 7 of the paper), boxplot summaries matching the paper's
// plotting conventions, and the binomial tail used in the security analysis
// (§5).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summary functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Median returns the median of xs. It copies xs and so does not disturb the
// caller's ordering. It returns 0 for an empty slice; callers that must
// distinguish use MedianErr.
func Median(xs []float64) float64 {
	m, err := MedianErr(xs)
	if err != nil {
		return 0
	}
	return m
}

// smallMedian is the largest sample count MedianErr sorts in a stack
// array; a measurement slot's per-second series (30 s by default) fits.
const smallMedian = 64

// MedianErr returns the median of xs, or ErrEmpty. Up to smallMedian
// samples it allocates nothing. The result equals that of sorting a copy
// with sort.Float64s (NaN first), except that where +0 and −0 tie the
// sign of a zero result may differ.
func MedianErr(xs []float64) (float64, error) {
	switch n := len(xs); {
	case n == 0:
		return 0, ErrEmpty
	case n <= smallMedian:
		var buf [smallMedian]float64
		s := buf[:n]
		copy(s, xs)
		insertionSort(s)
		return medianSorted(s), nil
	default:
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return medianSorted(s), nil
	}
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// insertionSort sorts s ascending in sort.Float64s's order: NaNs first.
func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i
		for ; j > 0 && floatLess(v, s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = v
	}
}

func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stdev returns the population standard deviation of xs.
func Stdev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// RSD computes the relative standard deviation stdev(V)/mean(V) (paper Eq. 7).
// It returns 0 when the mean is zero to avoid dividing by zero for idle
// relays.
func RSD(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 {
		return 0
	}
	return Stdev(xs) / mu
}

// Percentile returns the q-th percentile (q in [0,100]) of xs using linear
// interpolation between closest ranks, matching numpy's default method used
// by the paper's analysis scripts.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

func percentileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Min returns the minimum of xs, or 0 if empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 if empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// CDF is an empirical cumulative distribution function over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples backing the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns the cumulative fraction of samples ≤ x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the value below which fraction q (in [0,1]) of the
// samples fall.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return percentileSorted(c.sorted, q*100)
}

// Points returns up to n evenly spaced (value, cumulative fraction) points,
// suitable for rendering the CDF as a plot series.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		pts = append(pts, [2]float64{c.sorted[idx], float64(idx+1) / float64(len(c.sorted))})
	}
	return pts
}

// Boxplot summarizes a sample the way the paper's figures do: median, mean,
// interquartile range, and whiskers at the 5th and 95th percentiles.
type Boxplot struct {
	Median float64
	Mean   float64
	Q1     float64
	Q3     float64
	P5     float64
	P95    float64
	N      int
}

// NewBoxplot computes the boxplot summary of xs.
func NewBoxplot(xs []float64) Boxplot {
	if len(xs) == 0 {
		return Boxplot{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Boxplot{
		Median: percentileSorted(s, 50),
		Mean:   Mean(s),
		Q1:     percentileSorted(s, 25),
		Q3:     percentileSorted(s, 75),
		P5:     percentileSorted(s, 5),
		P95:    percentileSorted(s, 95),
		N:      len(s),
	}
}

// BinomialTail returns Pr[B(n, p) >= k] for a binomially distributed B.
// The paper's §5 uses it to bound the success probability of a relay that
// provides high capacity during only a fraction q of measurement slots:
// with n BWAuths the attack succeeds with probability Pr[B(n, q) >= n/2].
func BinomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	var total float64
	for i := k; i <= n; i++ {
		total += binomPMF(n, p, i)
	}
	if total > 1 {
		total = 1
	}
	return total
}

func binomPMF(n int, p float64, k int) float64 {
	if p < 0 || p > 1 {
		return 0
	}
	// Work in log space for numerical stability at large n.
	lp := logChoose(n, k)
	if p > 0 {
		lp += float64(k) * math.Log(p)
	} else if k > 0 {
		return 0
	}
	if p < 1 {
		lp += float64(n-k) * math.Log(1-p)
	} else if n-k > 0 {
		return 0
	}
	return math.Exp(lp)
}

func logChoose(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// TotalVariationDistance returns half the L1 distance between two discrete
// distributions given as aligned slices. It is the network weight error
// metric of paper Eq. 6 when a and b are normalized weights and capacities.
func TotalVariationDistance(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += math.Abs(a[i] - b[i])
	}
	// Any unmatched tail counts fully toward the distance.
	for i := n; i < len(a); i++ {
		s += math.Abs(a[i])
	}
	for i := n; i < len(b); i++ {
		s += math.Abs(b[i])
	}
	return s / 2
}

// Normalize returns xs scaled to sum to 1. An all-zero or empty input
// returns a copy unchanged.
func Normalize(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	total := Sum(out)
	if total == 0 {
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
