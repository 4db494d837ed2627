// Package importer is clean, and it calls into fixtures that are not:
// harmonyvet reports findings only in the packages named on its
// command line, never in the packages they import.
package importer

import (
	"harmony/internal/analysis/testdata/src/allocfree"
	"harmony/internal/analysis/testdata/src/maporder"
)

// Use calls a function of each fixture that has a finding.
func Use(dst []byte, s string, m map[int]float64) (int, float64) {
	return allocfree.HotEntry(dst, s), maporder.FloatAccum(m)
}
