// Package libspec implements the Library Specification Layer of the
// Active Harmony architecture (Fig. 1 of the paper): a uniform API
// over several implementations of the same functionality, with the
// choice of implementation exposed as a tunable parameter.
//
// The paper's example of a runtime-tunable decision is "what
// algorithm is being used (e.g., heap sort vs. quick sort)"; this
// package ships exactly that — a sorting service with interchangeable
// algorithm implementations — both as a usable component and as the
// reference pattern for making libraries tunable.
package libspec

import (
	"fmt"

	"harmony/internal/space"
)

// implementation is one concrete provider of a library function.
type implementation[T any] struct {
	// Name is the value the tuning parameter takes to select this
	// implementation.
	Name string
	// Fn is the implementation.
	Fn T
}

// Library is a named set of interchangeable implementations sharing a
// signature. The current selection can be switched at runtime — by a
// Harmony tuning session or by hand.
type Library[T any] struct {
	name    string
	impls   []implementation[T]
	current int
}

// newLibrary builds a library from its implementations. The first
// implementation is the initial selection.
func newLibrary[T any](name string, impls ...implementation[T]) (*Library[T], error) {
	if len(impls) == 0 {
		return nil, fmt.Errorf("libspec: library %q has no implementations", name)
	}
	seen := map[string]bool{}
	for _, im := range impls {
		if im.Name == "" {
			return nil, fmt.Errorf("libspec: library %q has an unnamed implementation", name)
		}
		if seen[im.Name] {
			return nil, fmt.Errorf("libspec: library %q repeats implementation %q", name, im.Name)
		}
		seen[im.Name] = true
	}
	return &Library[T]{name: name, impls: impls}, nil
}

// Name returns the library name.
func (l *Library[T]) Name() string { return l.name }

// Current returns the selected implementation.
func (l *Library[T]) Current() T { return l.impls[l.current].Fn }

// CurrentName returns the selected implementation's name.
func (l *Library[T]) CurrentName() string { return l.impls[l.current].Name }

// Select switches to the named implementation.
func (l *Library[T]) Select(name string) error {
	for i, im := range l.impls {
		if im.Name == name {
			l.current = i
			return nil
		}
	}
	return fmt.Errorf("libspec: library %q has no implementation %q", l.name, name)
}

// Param exposes the implementation choice as a tuning parameter.
func (l *Library[T]) Param() space.Param {
	names := make([]string, len(l.impls))
	for i, im := range l.impls {
		names[i] = im.Name
	}
	return space.EnumParam(l.name, names...)
}

// Apply sets the selection from a tuning configuration that contains
// the library's parameter.
func (l *Library[T]) Apply(cfg space.Config) error {
	return l.Select(cfg.String(l.name))
}

// SortFunc sorts a slice of float64 in ascending order.
type SortFunc func([]float64)

// NewSortLibrary returns the paper's example: a sort service
// selectable among heap sort, quicksort, merge sort, and insertion
// sort. The algorithms have different constant factors and
// pathologies, so the best choice depends on input size and
// distribution — a genuinely tunable decision.
func NewSortLibrary() *Library[SortFunc] {
	lib, err := newLibrary("sort_algorithm",
		implementation[SortFunc]{Name: "heap", Fn: heapSort},
		implementation[SortFunc]{Name: "quick", Fn: quickSort},
		implementation[SortFunc]{Name: "merge", Fn: mergeSort},
		implementation[SortFunc]{Name: "insertion", Fn: insertionSort},
	)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return lib
}

// heapSort sorts in place with a binary max-heap.
func heapSort(a []float64) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a, 0, end)
	}
}

func siftDown(a []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// quickSort sorts in place with median-of-three pivoting and an
// insertion-sort cutoff.
func quickSort(a []float64) {
	for len(a) > 16 {
		p := partition(a)
		if p < len(a)-p {
			quickSort(a[:p])
			a = a[p+1:]
		} else {
			quickSort(a[p+1:])
			a = a[:p]
		}
	}
	insertionSort(a)
}

func partition(a []float64) int {
	mid := len(a) / 2
	hi := len(a) - 1
	// Median of three to the front.
	if a[mid] < a[0] {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[hi] < a[0] {
		a[hi], a[0] = a[0], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	a[mid], a[hi-1] = a[hi-1], a[mid]
	i := 0
	for j := 0; j < hi-1; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}

// mergeSort sorts with O(n) scratch space.
func mergeSort(a []float64) {
	if len(a) < 2 {
		return
	}
	scratch := make([]float64, len(a))
	mergeSortInto(a, scratch)
}

func mergeSortInto(a, scratch []float64) {
	if len(a) < 32 {
		insertionSort(a)
		return
	}
	mid := len(a) / 2
	mergeSortInto(a[:mid], scratch[:mid])
	mergeSortInto(a[mid:], scratch[mid:])
	copy(scratch, a)
	i, j := 0, mid
	for k := range a {
		switch {
		case i >= mid:
			a[k] = scratch[j]
			j++
		case j >= len(a):
			a[k] = scratch[i]
			i++
		case scratch[j] < scratch[i]:
			a[k] = scratch[j]
			j++
		default:
			a[k] = scratch[i]
			i++
		}
	}
}

// insertionSort sorts in place; O(n²) but fastest for tiny or nearly
// sorted inputs.
func insertionSort(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
