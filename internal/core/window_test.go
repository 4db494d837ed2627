package core

import (
	"testing"
	"unsafe"
)

// TestCandidateSize pins the off-line driver's candidate at 96 bytes on
// 64-bit platforms, a size class: a campaign on a new scratch allocates
// one per proposal, and a pooled scratch keeps one per proposal of the
// largest campaign it has run. A field added must fill padding, as Kind
// does beside the flags, or pay for the 112-byte class.
func TestCandidateSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Candidate[*evalJob]{}); got != 96 {
		t.Errorf("unsafe.Sizeof(Candidate[*evalJob]{}) = %d, want 96", got)
	}
}
