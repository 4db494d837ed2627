package core

import (
	"math"
	"slices"
	"sort"

	"harmony/internal/space"
)

// ParamSensitivity summarises how strongly one parameter moved the
// objective across a tuning session's evaluations.
type ParamSensitivity struct {
	// Name is the parameter name.
	Name string
	// Spread is the difference between the highest and lowest
	// per-level mean objective, as a fraction of the overall mean:
	// 0.25 means the worst level of this parameter cost 25% of the
	// mean objective more than the best level, other parameters
	// averaged out.
	Spread float64
	// BestValue is the rendered parameter value with the lowest mean
	// objective.
	BestValue string
	// Levels is the number of distinct levels observed.
	Levels int
}

// Sensitivity estimates per-parameter impact from a completed tuning
// session's trial log — a one-factor analysis over whatever points
// the search visited. The paper's Section VII notes "it is extremely
// difficult to decide the contribution of each individual component
// to the performance of the whole application" when tuning by hand;
// this report extracts exactly those contributions from the runs the
// tuner already paid for.
//
// Cached, pruned and failed trials are ignored: only a run measures.
// Parameters observed at fewer than two levels get Spread 0 (no
// evidence). Results are sorted by decreasing Spread.
func Sensitivity(sp *space.Space, trials []Trial) []ParamSensitivity {
	type acc struct {
		sum   map[int64]float64
		count map[int64]int
	}
	dims := sp.Dims()
	accs := make([]acc, dims)
	for d := range accs {
		accs[d] = acc{sum: make(map[int64]float64), count: make(map[int64]int)}
	}
	var total float64
	var n int
	for _, tr := range trials {
		if tr.Cached || tr.Pruned || tr.Err != nil || math.IsInf(tr.Value, 0) || math.IsNaN(tr.Value) {
			continue
		}
		total += tr.Value
		n++
		for d := 0; d < dims; d++ {
			lvl := tr.Point[d]
			accs[d].sum[lvl] += tr.Value
			accs[d].count[lvl]++
		}
	}
	out := make([]ParamSensitivity, dims)
	params := sp.Params()
	mean := 0.0
	if n > 0 {
		mean = total / float64(n)
	}
	for d := 0; d < dims; d++ {
		ps := ParamSensitivity{Name: params[d].Name, Levels: len(accs[d].count)}
		if ps.Levels >= 2 && mean > 0 {
			// Levels in ascending order, so a tie for the lowest mean goes
			// to the lowest level, not to whichever the map yields first.
			lvls := make([]int64, 0, ps.Levels)
			for lvl := range accs[d].count {
				lvls = append(lvls, lvl)
			}
			slices.Sort(lvls)
			lo, hi := math.Inf(1), math.Inf(-1)
			var bestLvl int64
			for _, lvl := range lvls {
				m := accs[d].sum[lvl] / float64(accs[d].count[lvl])
				if m < lo {
					lo = m
					bestLvl = lvl
				}
				if m > hi {
					hi = m
				}
			}
			ps.Spread = (hi - lo) / mean
			ps.BestValue = params[d].StringAt(bestLvl)
		}
		out[d] = ps
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Spread > out[j].Spread })
	return out
}
