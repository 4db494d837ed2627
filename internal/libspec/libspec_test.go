package libspec

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"harmony/internal/space"
)

func TestAllSortsSortCorrectly(t *testing.T) {
	algos := map[string]SortFunc{
		"heap": heapSort, "quick": quickSort, "merge": mergeSort, "insertion": insertionSort,
	}
	inputs := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			rng := rand.New(rand.NewSource(1))
			a := make([]float64, n)
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			return a
		},
		"sorted": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(i)
			}
			return a
		},
		"reversed": func(n int) []float64 {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(n - i)
			}
			return a
		},
		"constant": func(n int) []float64 {
			return make([]float64, n)
		},
	}
	for name, sortFn := range algos {
		for kind, gen := range inputs {
			for _, n := range []int{0, 1, 2, 17, 100, 1000} {
				a := gen(n)
				sortFn(a)
				if !slices.IsSorted(a) {
					t.Errorf("%s failed on %s input of %d", name, kind, n)
				}
			}
		}
	}
}

func TestSortsEquivalentProperty(t *testing.T) {
	f := func(input []float64) bool {
		h := append([]float64(nil), input...)
		q := append([]float64(nil), input...)
		m := append([]float64(nil), input...)
		heapSort(h)
		quickSort(q)
		mergeSort(m)
		for i := range h {
			if h[i] != q[i] || q[i] != m[i] {
				return false
			}
		}
		return slices.IsSorted(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLibrarySelection(t *testing.T) {
	lib := NewSortLibrary()
	if lib.CurrentName() != "heap" {
		t.Errorf("initial selection %q, want heap", lib.CurrentName())
	}
	if err := lib.Select("quick"); err != nil {
		t.Fatalf("Select: %v", err)
	}
	if lib.CurrentName() != "quick" {
		t.Errorf("selection %q after Select", lib.CurrentName())
	}
	if err := lib.Select("bogus"); err == nil {
		t.Error("expected error for unknown implementation")
	}
	a := []float64{3, 1, 2}
	lib.Current()(a)
	if !slices.IsSorted(a) {
		t.Error("current implementation does not sort")
	}
}

func TestLibraryParamAndApply(t *testing.T) {
	lib := NewSortLibrary()
	sp := space.MustNew(lib.Param())
	cfg := sp.MustDecode(space.Point{2}) // merge
	if err := lib.Apply(cfg); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if lib.CurrentName() != "merge" {
		t.Errorf("applied selection %q, want merge", lib.CurrentName())
	}
}

func TestNewLibraryValidation(t *testing.T) {
	if _, err := newLibrary[SortFunc]("empty"); err == nil {
		t.Error("expected error for empty library")
	}
	if _, err := newLibrary("dup",
		implementation[SortFunc]{Name: "a", Fn: heapSort},
		implementation[SortFunc]{Name: "a", Fn: quickSort}); err == nil {
		t.Error("expected error for duplicate names")
	}
	if _, err := newLibrary("unnamed",
		implementation[SortFunc]{Fn: heapSort}); err == nil {
		t.Error("expected error for unnamed implementation")
	}
}
