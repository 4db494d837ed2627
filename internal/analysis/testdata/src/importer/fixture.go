// Package importer is clean, and it calls into fixtures that are not:
// harmonyvet reports findings only in the packages named on its
// command line, never in the packages they import.
package importer

import (
	"io"

	"harmony/internal/analysis/testdata/src/maporder"
	"harmony/internal/analysis/testdata/src/proto"
)

// Use calls a function of each fixture that has a finding.
func Use(w io.Writer, c io.Closer, m map[int]float64) float64 {
	proto.Bad(w, c, nil)
	return maporder.FloatAccum(m)
}
