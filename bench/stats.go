package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// spread is the contract's repeatability statistic: the distance
// between the first and third quartile as a share of the median, with
// the quartiles of Python's statistics.quantiles(values, n=4) — the
// exclusive method, positions (n+1)·k/4 on the sorted sample.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// tailCandidates are the percentiles the tail rule may pick, highest
// first, each with the share of samples beyond it in thousandths. p75
// is below what anyone calls a tail; it is the fallback for repetitions
// with fewer than 100 ops (one 80-run campaign), where even p90 has
// fewer than ten samples beyond it.
var tailCandidates = []struct {
	p            float64
	beyondPerMil int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailMinBeyond is how many samples must lie beyond a percentile for
// it to be reported.
const tailMinBeyond = 10

// tailPercentile applies the rule "the highest percentile that has at
// least ten samples beyond it" to a sample count. ok=false means even
// the lowest candidate has too few samples beyond it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n*c.beyondPerMil >= tailMinBeyond*1000 {
			return c.p, true
		}
	}
	return 0, false
}

// tail returns the rule's percentile of xs and which percentile it
// was. With too few samples it falls back to the maximum (p=100).
func tail(xs []float64) (value, p float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return quantile(xs, 1), 100
	}
	return quantile(xs, p/100), p
}

// spearman is the rank correlation of two equally long samples; ties
// receive the mean of the ranks they span.
func spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra, rb := ranks(a), ranks(b)
	ma, mb := mean(ra), mean(rb)
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}
