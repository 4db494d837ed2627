// Package allocfree exercises the allocfree analyzer: a function
// annotated //harmonyvet:allocfree must be transitively free of heap
// allocation.
package allocfree

import (
	"fmt"
	"math"
	"strings"
)

type point struct{ x, y float64 }

func noop() {}

func sinkAny(v any) { _ = v }

//harmonyvet:allocfree
func hotMake(n int) []float64 {
	buf := make([]float64, n) // want `make allocates on the allocation-free path of hotMake`
	return buf
}

//harmonyvet:allocfree
func hotEscape() *point {
	return &point{x: 1} // want `&composite literal escapes to the heap`
}

//harmonyvet:allocfree
func hotConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//harmonyvet:allocfree
func hotConv(s string) int {
	b := []byte(s) // want `string to \[\]byte conversion allocates`
	return len(b)
}

//harmonyvet:allocfree
func hotClosure(n int) func() int {
	return func() int { return n } // want `closure captures variables and may allocate its environment`
}

//harmonyvet:allocfree
func hotDynamic(f func() int) int {
	return f() // want `dynamic call \(func value or interface method\) cannot be proven allocation-free`
}

//harmonyvet:allocfree
func hotGo() {
	go noop() // want `go statement allocates a goroutine`
}

//harmonyvet:allocfree
func hotBox(x int) {
	sinkAny(x) // want `argument boxes int into interface parameter of sinkAny`
}

//harmonyvet:allocfree
func hotForeign(s string) string {
	return strings.ToUpper(s) // want `calls strings.ToUpper, which harmonyvet cannot prove allocation-free`
}

// An allocation introduced in a helper is caught at its site and
// attributed to the annotated root that reaches it.

//harmonyvet:allocfree
func HotEntry(dst []byte, s string) int {
	return helperGrow(dst, s)
}

func helperGrow(dst []byte, s string) int {
	dst = append(dst, s...) // want `append may grow its backing array on the allocation-free path of HotEntry \(HotEntry → helperGrow\)`
	return len(dst)
}

// Negative cases: the allowlisted pure stdlib, panic arguments,
// annotated callees (which carry their own proof), amortized warm-up
// sites, and cold paths produce no findings.

//harmonyvet:allocfree
func hotMath(x float64) float64 { return math.Sqrt(x) }

//harmonyvet:allocfree
func hotLeaf(x, y float64) float64 { return x*y + 1 }

//harmonyvet:allocfree
func hotComposed(x float64) float64 { return hotLeaf(x, x) }

//harmonyvet:allocfree
func hotPanic(i, n int) int {
	if i >= n {
		panic(fmt.Sprintf("index %d out of range [0,%d)", i, n))
	}
	return i
}

//harmonyvet:allocamortized the buffer grows once to its high-water capacity; steady-state calls reslice in place
func warmGrow(buf []float64, n int) []float64 {
	for cap(buf) < n {
		buf = append(buf, 0)
	}
	return buf[:n]
}

//harmonyvet:allocfree
func hotViaAmortized(buf []float64) float64 {
	buf = warmGrow(buf, 8)
	return buf[0]
}

//harmonyvet:coldpath the run is already failing; formatting the diagnostic may allocate freely
func coldReport(code int) string {
	return fmt.Sprintf("failed with code %d", code)
}

//harmonyvet:allocfree
func hotWithColdExit(ok bool) string {
	if !ok {
		return coldReport(1)
	}
	return ""
}

// A fixed-capacity ring buffer is the steady-state shape of the
// pipelined engine: the cursor helpers only index into a buffer sized
// at construction, so they prove allocation-free, while a ring that
// grows inside a steady-state helper is caught at the append.

type ring struct {
	buf  []int
	head int
	n    int
}

//harmonyvet:allocfree
func (r *ring) push(v int) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

//harmonyvet:allocfree
func (r *ring) pop() int {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

//harmonyvet:allocfree
func hotRingCycle(r *ring, v int) int {
	r.push(v)
	return r.pop()
}

//harmonyvet:allocfree
func hotRingGrow(r *ring, v int) {
	r.buf = append(r.buf, v) // want `append may grow its backing array on the allocation-free path of hotRingGrow`
	r.n++
}

// Growing the ring to its high-water capacity is legal when the grow
// site carries its own amortisation proof, exactly like warmGrow.

//harmonyvet:allocamortized the window grows once to the configured depth; steady-state polls reuse it
func (r *ring) reserve(depth int) {
	for cap(r.buf) < depth {
		r.buf = append(r.buf, 0)
	}
	r.buf = r.buf[:depth]
}

//harmonyvet:allocfree
func hotRingViaReserve(r *ring, v int) int {
	r.reserve(8)
	r.push(v)
	return r.pop()
}

// A justified suppression keeps the finding out of the report.

//harmonyvet:allocfree
func hotSuppressed(n int) int {
	//harmonyvet:ignore allocfree the scratch is fixed-size and proven stack-allocated with -gcflags=-m
	scratch := make([]int, 4)
	s := 0
	for i := 0; i < n; i++ {
		s += scratch[i&3]
	}
	return s
}
