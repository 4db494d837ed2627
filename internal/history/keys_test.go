package history

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/space"
)

// weightSpace is Fig. 2's large tuning space: 32 partition weights in
// [1, 1000].
func weightSpace() *space.Space {
	params := make([]space.Param, 32)
	for i := range params {
		params[i] = space.IntParam("w"+strconv.Itoa(i), 1, 1000, 1)
	}
	return space.MustNew(params...)
}

// TestLookupAllocatesNothing pins the per-proposal read of a bound
// cache at zero allocations, on a hit and on a miss, for an identity as
// long as a 32-node machine's fingerprint, with 2- and 32-parameter
// points, and on a hit on an entry moved in from a file. Binding the
// same identity again, as every campaign after the first does, finds
// the binding without allocating for both spaces.
func TestLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	c := NewEvalCache()
	machine := cluster.Seaborg(32, 1).Fingerprint()
	wide := make(space.Point, 32)
	for i := range wide {
		wide[i] = 999 - int64(i)
	}
	for _, sp := range []struct {
		sp        *space.Space
		hit, miss space.Point
	}{
		{cacheSpace(), space.Point{3, 4}, space.Point{4, 3}},
		{weightSpace(), wide, make(space.Point, 32)},
	} {
		b := c.BoundNS("fig2-sles", machine, "campaign-7", sp.sp)
		rebind := func() {
			if c.BoundNS("fig2-sles", machine, "campaign-7", sp.sp) != b {
				t.Fatal("the same identity bound twice gave two bindings")
			}
		}
		if n := testing.AllocsPerRun(100, rebind); n != 0 {
			t.Errorf("%d parameters: binding the identity again allocates %v times, want 0", sp.sp.Dims(), n)
		}
		b.Store(sp.hit, 1.5)
		if n := testing.AllocsPerRun(100, func() { b.Lookup(sp.hit) }); n != 0 {
			t.Errorf("%d parameters: Lookup allocates %v times on a hit, want 0", len(sp.hit), n)
		}
		if n := testing.AllocsPerRun(100, func() { b.Lookup(sp.miss) }); n != 0 {
			t.Errorf("%d parameters: Lookup allocates %v times on a miss, want 0", len(sp.miss), n)
		}
	}

	opened, err := OpenEvalCache(copyGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	b := opened.BoundNS("sles", "m1", "", cacheSpace())
	moved := space.Point{3, 4}
	if _, ok := b.Lookup(moved); !ok {
		t.Fatalf("golden point %v missed", moved)
	}
	if n := testing.AllocsPerRun(100, func() { b.Lookup(moved) }); n != 0 {
		t.Errorf("Lookup allocates %v times on a hit moved in from a file, want 0", n)
	}
}

// copyGolden copies testdata/evalcache-format.json into a temporary
// directory, so that a cache opened on the copy can save over it.
func copyGolden(t testing.TB) string {
	data, err := os.ReadFile(filepath.Join("testdata", "evalcache-format.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// formatFixture is the content of testdata/evalcache-format.json: every
// point of every binding below, stored at a value derived from both.
// Two applications × two namespaces (Bound and BoundNS) × two spaces;
// gs2's machine string (1 200 bytes) is longer than a 32-node
// machine's fingerprint.
func formatFixture(c *EvalCache, visit func(b *BoundCache, pt space.Point, v float64)) {
	spaces := []*space.Space{
		cacheSpace(),
		space.MustNew(space.EnumParam("layout", "xyles", "yxles", "lxyes"), space.IntParam("npe", 1, 64, 1)),
	}
	points := [][]space.Point{
		{{0, 0}, {3, 4}, {10, 7}},
		{{0, 0}, {2, 31}, {1, 63}},
	}
	apps := []struct{ name, machine string }{
		{"sles", "m1"},
		{"gs2", strings.Repeat("n8;p4;g,3fe1999999999999", 50)},
	}
	binding := 0
	for _, app := range apps {
		for _, ns := range []string{"", "tenant-a"} {
			for s, sp := range spaces {
				b := c.BoundNS(app.name, app.machine, ns, sp)
				binding++
				for i, pt := range points[s] {
					visit(b, pt, float64(binding)/3+float64(i)*1e3)
				}
			}
		}
	}
}

// TestEvalCacheFileFormatUnchanged opens a cache file written by an
// earlier build of this package and checks that every point it was
// written with hits at its stored value, and that storing the same
// entries today saves the same bytes: keys and file format are stable.
func TestEvalCacheFileFormatUnchanged(t *testing.T) {
	golden := filepath.Join("testdata", "evalcache-format.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	old, err := OpenEvalCache(golden)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	formatFixture(old, func(b *BoundCache, pt space.Point, v float64) {
		n++
		if got, ok := b.Lookup(pt); !ok || got != v {
			t.Errorf("%s point %v: Lookup = (%v, %v), want (%v, true)", b.prefix[:strings.IndexByte(b.prefix, 0)], pt, got, ok, v)
		}
	})
	if old.Len() != n {
		t.Errorf("golden file holds %d entries, the fixture %d", old.Len(), n)
	}

	path := filepath.Join(t.TempDir(), "cache.json")
	c, err := OpenEvalCache(path)
	if err != nil {
		t.Fatal(err)
	}
	formatFixture(c, func(b *BoundCache, pt space.Point, v float64) { b.Store(pt, v) })
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Save wrote %d bytes that differ from the %d of %s", len(got), len(want), golden)
	}
}

// TestOpenedEntriesMoveOnce opens the golden file, looks up half its
// points, and stores a new value over one entry still unclaimed: every
// entry is counted once wherever it lives, a looked-up entry moves into
// its binding once, and Save writes the golden bytes with the one value
// replaced.
func TestOpenedEntriesMoveOnce(t *testing.T) {
	path := copyGolden(t)
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenEvalCache(path)
	if err != nil {
		t.Fatal(err)
	}
	total := c.Len()
	var replaced entryKey
	n := 0
	for pass := 0; pass < 2; pass++ {
		n = 0
		formatFixture(c, func(b *BoundCache, pt space.Point, v float64) {
			n++
			switch {
			case n%2 == 1:
				if got, ok := b.Lookup(pt); !ok || got != v {
					t.Errorf("pass %d, %s point %v: Lookup = (%v, %v), want (%v, true)", pass, b.prefix[:strings.IndexByte(b.prefix, 0)], pt, got, ok, v)
				}
			case n == 2 && pass == 0:
				replaced = digest(b.prefix, pt.Key())
				b.Store(pt, -1)
			}
		})
		if c.Len() != total {
			t.Errorf("pass %d: Len = %d, want %d", pass, c.Len(), total)
		}
		if want := n/2 - 1; len(c.unclaimed) != want {
			t.Errorf("pass %d: %d entries unclaimed, want %d", pass, len(c.unclaimed), want)
		}
	}

	var want map[string]float64
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	if _, ok := want[string(replaced[:])]; !ok {
		t.Fatalf("the replaced point's digest %s is not in the golden file", replaced[:])
	}
	want[string(replaced[:])] = -1
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("Save wrote\n%s\nwant\n%s", got, wantBytes)
	}
}

// TestConcurrentBindingsAndSave runs eight goroutines that bind, look
// up and store on one shared binding and on one binding each, over a
// cache opened from a file, while Save runs; under -race it checks
// that every map is read and written under the lock. Afterwards every
// entry is counted once and the saved file holds them all.
func TestConcurrentBindingsAndSave(t *testing.T) {
	path := copyGolden(t)
	c, err := OpenEvalCache(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, side = 8, 6
	value := func(ns string, pt space.Point) float64 { return float64(len(ns)) + float64(pt[0]*side+pt[1]) }
	stop := make(chan struct{})
	saved := make(chan error)
	go func() {
		for {
			if err := c.Save(); err != nil {
				saved <- err
				return
			}
			select {
			case <-stop:
				saved <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < side*side; i++ {
				pt := space.Point{int64(i / side), int64(i % side)}
				for _, ns := range []string{"", "worker-" + strconv.Itoa(w)} {
					b := c.BoundNS("sles", "m1", ns, cacheSpace())
					if v, ok := b.Lookup(pt); ok && ns != "" && v != value(ns, pt) {
						t.Errorf("%q %v: Lookup = %v, want %v", ns, pt, v, value(ns, pt))
					}
					b.Store(pt, value(ns, pt))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	// Two of the shared binding's golden points, {0,0} and {3,4}, lie in
	// the grid and were overwritten; every other golden entry survives
	// beside the new ones.
	want := 24 - 2 + side*side*(1+workers)
	if c.Len() != want {
		t.Errorf("Len = %d, want %d", c.Len(), want)
	}
	back, err := OpenEvalCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != want {
		t.Errorf("saved %d entries, want %d", back.Len(), want)
	}
	for w := 0; w < workers; w++ {
		ns := "worker-" + strconv.Itoa(w)
		b := back.BoundNS("sles", "m1", ns, cacheSpace())
		for i := 0; i < side*side; i++ {
			pt := space.Point{int64(i / side), int64(i % side)}
			if v, ok := b.Lookup(pt); !ok || v != value(ns, pt) {
				t.Fatalf("%q %v after reopening: Lookup = (%v, %v), want (%v, true)", ns, pt, v, ok, value(ns, pt))
			}
		}
	}
}

// looked keeps BenchmarkBoundLookup's reads observable.
var looked float64

// BenchmarkBoundLookup times one Lookup on a bound cache, hit and miss,
// on a 32-node Seaborg's identity with 2- and 32-parameter points.
func BenchmarkBoundLookup(b *testing.B) {
	c := NewEvalCache()
	machine := cluster.Seaborg(32, 1).Fingerprint()
	for _, sp := range []*space.Space{cacheSpace(), weightSpace()} {
		bc := c.BoundNS("fig2-sles", machine, "campaign-7", sp)
		hit, miss := sp.Center(), make(space.Point, sp.Dims())
		bc.Store(hit, 1.5)
		for _, c := range []struct {
			name string
			pt   space.Point
		}{{"hit", hit}, {"miss", miss}} {
			b.Run(c.name+"/params="+strconv.Itoa(sp.Dims()), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					looked, _ = bc.Lookup(c.pt)
				}
			})
		}
	}
}
