// Online tuning through the Library Specification Layer: a running
// service keeps sorting batches while a Harmony server tunes which
// sort algorithm it uses — the paper's "heap sort vs. quick sort"
// example of a runtime-tunable decision.
//
// The example starts an in-process Harmony server, registers the sort
// library's algorithm parameter, and then processes batches: before
// each batch it fetches the configuration to use, and afterwards it
// reports the measured batch time. No restarts, no recompilation —
// the selection converges while the service stays up.
//
//	go run ./examples/online-sort
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"harmony"
)

func main() {
	// Start a Harmony server on an ephemeral port.
	srv := harmony.NewServer()
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	lib := harmony.NewSortLibrary()
	sp := harmony.MustNewSpace(lib.Param())

	c, err := harmony.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register(harmony.Registration{
		App:      "sort-service",
		Space:    sp,
		Strategy: "exhaustive", // 4 algorithms: just try each
	})
	if err != nil {
		log.Fatal(err)
	}

	// The workload: batches of nearly sorted data, where insertion
	// sort shines and a naive default (heap) is mediocre.
	rng := rand.New(rand.NewSource(7))
	batch := func() []float64 {
		a := make([]float64, 200000)
		for i := range a {
			a[i] = float64(i)
		}
		for k := 0; k < 200; k++ { // a few out-of-place elements
			i, j := rng.Intn(len(a)), rng.Intn(len(a))
			a[i], a[j] = a[j], a[i]
		}
		return a
	}

	for i := 0; i < 12; i++ {
		values, converged, err := sess.Fetch()
		if err != nil {
			log.Fatal(err)
		}
		if err := lib.Select(values["sort_algorithm"]); err != nil {
			log.Fatal(err)
		}
		data := batch()
		start := time.Now()
		lib.Current()(data)
		elapsed := time.Since(start).Seconds()
		fmt.Printf("batch %2d: %-10s %8.1f ms  (converged=%v)\n",
			i+1, lib.CurrentName(), 1000*elapsed, converged)
		if converged {
			break
		}
		if err := sess.Report(elapsed); err != nil {
			log.Fatal(err)
		}
	}
	best, perf, err := sess.Best()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntuned selection: %s (%.1f ms per batch)\n", best["sort_algorithm"], 1000*perf)
}
