package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := append([]float64(nil), raw...)
		for i := range s {
			if math.IsNaN(s[i]) {
				s[i] = 0
			}
		}
		sortFloats(s)
		pp := math.Mod(math.Abs(p), 1)
		v := percentile(s, pp)
		return v >= s[0] && v <= s[len(s)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestFractionBelowAndRank(t *testing.T) {
	vals := []float64{100, 150, 200, 250, 300}
	if got := FractionBelow(vals, 200); got != 0.4 {
		t.Errorf("FractionBelow = %v, want 0.4", got)
	}
	if got := FractionBelow(nil, 1); got != 0 {
		t.Errorf("FractionBelow(nil) = %v", got)
	}
	if got := RankOf(vals, 151); got != 2 {
		t.Errorf("RankOf = %d, want 2", got)
	}
}

func TestHistogramCountsEverything(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h := NewHistogram(vals, 4)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(vals) {
		t.Errorf("histogram holds %d of %d values", total, len(vals))
	}
	if h.Min != 1 || h.Max != 10 {
		t.Errorf("range [%v,%v]", h.Min, h.Max)
	}
}

func TestHistogramConstantSample(t *testing.T) {
	h := NewHistogram([]float64{7, 7, 7}, 3)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant sample lost values: %v", h.Counts)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram([]float64{1, 1, 1, 1, 2, 9}, 2)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Error("render has no bars")
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("render has %d lines, want 2", lines)
	}
}

func TestPanicsOnEmpty(t *testing.T) {
	for name, fn := range map[string]func(){
		"Summarize":    func() { Summarize(nil) },
		"Percentile":   func() { percentile(nil, 0.5) },
		"NewHistogram": func() { NewHistogram(nil, 3) },
		"ZeroBins":     func() { NewHistogram([]float64{1}, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		})
	}
}
