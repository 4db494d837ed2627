package history

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harmony/internal/cluster"
	"harmony/internal/space"
)

// TestLookupAllocatesNothing pins the per-proposal read of a bound
// cache at zero allocations, on a hit and on a miss, for an identity as
// long as a 32-node machine's fingerprint.
func TestLookupAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	b := NewEvalCache().BoundNS("fig2-sles", cluster.Seaborg(32, 1).Fingerprint(), "campaign-7", cacheSpace())
	hit, miss := space.Point{3, 4}, space.Point{4, 3}
	b.Store(hit, 1.5)
	if n := testing.AllocsPerRun(100, func() { b.Lookup(hit) }); n != 0 {
		t.Errorf("Lookup allocates %v times on a hit, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { b.Lookup(miss) }); n != 0 {
		t.Errorf("Lookup allocates %v times on a miss, want 0", n)
	}
}

// formatFixture is the content of testdata/evalcache-format.json: every
// point of every binding below, stored at a value derived from both.
// Two applications × two namespaces (Bound and BoundNS) × two spaces;
// gs2's machine string is longer than keyBufLen, so its keys spill.
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
				b := c.Bound(app.name, app.machine, sp)
				if ns != "" {
					b = c.BoundNS(app.name, app.machine, ns, sp)
				}
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
