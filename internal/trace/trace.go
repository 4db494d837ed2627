// Package trace provides the measurement utilities behind the
// experiment reports: summary statistics, percentiles, and text
// histograms (used to render the Fig. 6 configuration-performance
// distribution).
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary describes a sample of objective values.
type Summary struct {
	Count          int
	Min, Max, Mean float64
	P5, P50, P95   float64
}

// Summarize computes a Summary. It panics on an empty sample; every
// experiment produces at least one value.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		panic("trace: empty sample")
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count: len(s),
		Min:   s[0],
		Max:   s[len(s)-1],
		Mean:  sum / float64(len(s)),
		P5:    percentile(s, 0.05),
		P50:   percentile(s, 0.50),
		P95:   percentile(s, 0.95),
	}
}

// percentile returns the p-th percentile (0 <= p <= 1) of an
// ascending-sorted sample using linear interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("trace: empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// FractionBelow returns the fraction of values strictly below
// threshold — the paper's "less than 2% of configurations run under
// 200 seconds" statistic.
func FractionBelow(values []float64, threshold float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// RankOf returns the 0-based rank the value would take in the sample
// (number of values strictly smaller), used to place a tuned result
// within the sampled distribution ("within the top 5%").
func RankOf(values []float64, v float64) int {
	n := 0
	for _, x := range values {
		if x < v {
			n++
		}
	}
	return n
}

// Histogram bins values into equal-width bins over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
}

// NewHistogram builds a histogram with the given number of bins.
func NewHistogram(values []float64, bins int) Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("trace: %d bins", bins))
	}
	if len(values) == 0 {
		panic("trace: empty sample")
	}
	min, max := values[0], values[0]
	for _, v := range values {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	h := Histogram{Min: min, Max: max, Counts: make([]int, bins)}
	width := (max - min) / float64(bins)
	for _, v := range values {
		var b int
		if width > 0 {
			b = int((v - min) / width)
		}
		if b >= bins {
			b = bins - 1
		}
		h.Counts[b]++
	}
	return h
}

// Render draws the histogram as rows of '#' bars, one per bin, with
// the bin range and count on each row. width is the bar length of the
// fullest bin.
func (h Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	binWidth := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*binWidth
		hi := lo + binWidth
		bar := 0
		if maxCount > 0 {
			bar = c * width / maxCount
		}
		fmt.Fprintf(&b, "%10.1f-%-10.1f %6d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	return b.String()
}
