// Package maporder exercises the map-iteration-order analyzer.
package maporder

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

func FloatAccum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want `accumulates into a float`
		sum += v
	}
	return sum
}

func AppendValues(m map[int]int) []int {
	var out []int
	for _, v := range m { // want `appends map values`
		out = append(out, v)
	}
	return out
}

func PrintLoop(m map[string]int) {
	for k, v := range m { // want `calls Println`
		fmt.Println(k, v)
	}
}

// ArgMin keeps the key of the smallest value: of two tied values, the
// one visited first wins.
func ArgMin(m map[string]float64) string {
	best, lo := "", math.Inf(1)
	for k, v := range m { // want `selects an entry by an ordered comparison`
		if v < lo {
			best, lo = k, v
		}
	}
	return best
}

// BestName keeps a field of the winning value beside the compared one.
func BestName(m map[int]struct {
	name string
	cost float64
}) string {
	var name string
	lo := math.Inf(1)
	for _, v := range m { // want `selects an entry by an ordered comparison`
		if v.cost <= lo {
			lo, name = v.cost, v.name
		}
	}
	return name
}

// FirstNegative names whichever negative entry the loop meets first.
func FirstNegative(m map[string]int) error {
	for k, v := range m { // want `returns a result derived from the entry`
		if v < 0 {
			return fmt.Errorf("%s is negative", k)
		}
	}
	return nil
}

// FirstInvalid returns the entry's error through a local.
func FirstInvalid(m map[string]int, check func(int) error) error {
	for _, v := range m { // want `returns a result derived from the entry`
		if err := check(v); err != nil {
			return err
		}
	}
	return nil
}

// Max is order-independent: only the compared quantity is kept.
func Max(m map[string]float64) float64 {
	hi := math.Inf(-1)
	for _, v := range m {
		if v > hi {
			hi = v
		}
	}
	return hi
}

// AnyNegative is order-independent: the result names no entry.
func AnyNegative(m map[string]int) error {
	for _, v := range m {
		if v < 0 {
			return errors.New("a value is negative")
		}
	}
	return nil
}

// Visit is order-independent in its returns: the literal's return
// leaves the literal, not the loop.
func Visit(m map[string]int, do func(func() int)) {
	for _, v := range m {
		do(func() int { return v })
	}
}

// SortedKeys is the sanctioned idiom: collect the keys, sort them,
// then do the order-sensitive work over the sorted slice.
func SortedKeys(m map[int]float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum
}

// IntCount is order-independent: integer addition commutes exactly.
func IntCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// CopyMap is order-independent: distinct keys land in distinct slots.
func CopyMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
