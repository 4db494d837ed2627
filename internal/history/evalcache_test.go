package history

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"harmony/internal/space"
)

func cacheSpace() *space.Space {
	return space.MustNew(
		space.IntParam("x", 0, 10, 1),
		space.IntParam("y", 0, 10, 1),
	)
}

// A method that returns holding its mutex deadlocks the next caller,
// which shows as a test hanging until the timeout. The ReleasesMutex
// pins call every exported method, error paths included, and require
// the mutex to be free after each. They are the package's first tests,
// and a leak stops the test binary with the method named: nearly every
// later test calls Len, BoundNS or a lookup, and would hang on the leaked
// mutex until the timeout.
func requireUnlocked(mu *sync.Mutex, call string) {
	if !mu.TryLock() {
		panic(call + " returned holding the mutex")
	}
	mu.Unlock()
}

// blockDir replaces the directory dir with a file, so that saving
// anything under it fails.
func blockDir(t *testing.T, dir string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestEvalCacheReleasesMutex(t *testing.T) {
	sp := cacheSpace()
	a, b, fresh := space.Point{1, 2}, space.Point{3, 4}, space.Point{5, 6}

	mem := NewEvalCache()
	mb := mem.BoundNS("app", "m", "", sp)
	for _, step := range []struct {
		name string
		call func()
	}{
		{"Len", func() { mem.Len() }},
		{"BoundNS", func() { mem.BoundNS("app", "m", "tenant", sp) }},
		{"Lookup (miss)", func() { mb.Lookup(a) }},
		{"Store", func() { mb.Store(a, 1) }},
		{"Lookup (hit)", func() { mb.Lookup(a) }},
		{"Counters", func() { mem.Counters() }},
		{"Save (in memory)", func() {
			if err := mem.Save(); err != nil {
				t.Fatalf("in-memory Save: %v", err)
			}
		}},
	} {
		step.call()
		requireUnlocked(&mem.mu, step.name)
	}

	// An opened file's entries stay unclaimed until a binding's lookup
	// or store moves them: the slow paths of Lookup and Store.
	dir := filepath.Join(t.TempDir(), "d")
	path := filepath.Join(dir, "cache.json")
	src, err := OpenEvalCache(path)
	if err != nil {
		t.Fatal(err)
	}
	src.BoundNS("app", "m", "", sp).Store(a, 1)
	src.BoundNS("app", "m", "", sp).Store(b, 2)
	if err := src.Save(); err != nil {
		t.Fatal(err)
	}
	c, err := OpenEvalCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cb := c.BoundNS("app", "m", "", sp)
	for _, step := range []struct {
		name string
		call func()
	}{
		{"Len (entries unclaimed)", func() { c.Len() }},
		{"Lookup (claims an entry)", func() { cb.Lookup(a) }},
		{"Lookup (miss, entries unclaimed)", func() { cb.Lookup(fresh) }},
		{"Store (entries unclaimed)", func() { cb.Store(fresh, 3) }},
		{"Lookup (claims the last entry)", func() { cb.Lookup(b) }},
		{"Store (all claimed)", func() { cb.Store(a, 4) }},
		{"Save", func() {
			if err := c.Save(); err != nil {
				t.Fatalf("Save: %v", err)
			}
		}},
		{"Save (unwritable path)", func() {
			blockDir(t, dir)
			if err := c.Save(); err == nil {
				t.Fatal("Save under a file succeeded")
			}
		}},
	} {
		step.call()
		requireUnlocked(&c.mu, step.name)
	}
}

func TestEvalCacheRoundTrip(t *testing.T) {
	c := NewEvalCache()
	b := c.BoundNS("app", "m1", "", cacheSpace())
	pt := space.Point{3, 4}
	if _, ok := b.Lookup(pt); ok {
		t.Fatal("lookup hit on empty cache")
	}
	b.Store(pt, 42.5)
	v, ok := b.Lookup(pt)
	if !ok || v != 42.5 {
		t.Fatalf("Lookup = (%v, %v), want (42.5, true)", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 1 {
		t.Errorf("Counters = (%d, %d), want (1, 1)", hits, misses)
	}
}

// TestEvalCacheIdentityIsolation checks that entries never leak
// across evaluation identities: a value stored for one (app, machine,
// space) triple must miss for any neighbour that differs in exactly
// one component, even though the encoded point is identical.
func TestEvalCacheIdentityIsolation(t *testing.T) {
	c := NewEvalCache()
	sp := cacheSpace()
	pt := space.Point{5, 5}
	c.BoundNS("sles", "machineA", "", sp).Store(pt, 1.0)

	if _, ok := c.BoundNS("pop", "machineA", "", sp).Lookup(pt); ok {
		t.Error("different application shared a cache entry")
	}
	if _, ok := c.BoundNS("sles", "machineB", "", sp).Lookup(pt); ok {
		t.Error("different machine fingerprint shared a cache entry (stale timing survives model change)")
	}
	// Same coordinate tuple, different lattice: {5,5} decodes to a
	// different configuration in a coarser space.
	coarse := space.MustNew(
		space.IntParam("x", 0, 20, 2),
		space.IntParam("y", 0, 20, 2),
	)
	if _, ok := c.BoundNS("sles", "machineA", "", coarse).Lookup(pt); ok {
		t.Error("different space shape shared a cache entry")
	}
	// Enum value sets participate in the fingerprint too.
	e1 := space.MustNew(space.EnumParam("layout", "xyles", "yxles"))
	e2 := space.MustNew(space.EnumParam("layout", "xyles", "lexys"))
	c.BoundNS("gs2", "m", "", e1).Store(space.Point{1}, 2.0)
	if _, ok := c.BoundNS("gs2", "m", "", e2).Lookup(space.Point{1}); ok {
		t.Error("different enum values shared a cache entry")
	}
	// The matching identity still hits.
	if v, ok := c.BoundNS("sles", "machineA", "", sp).Lookup(pt); !ok || v != 1.0 {
		t.Errorf("original identity Lookup = (%v, %v), want (1, true)", v, ok)
	}
}

// TestBoundNSTenantIsolation: namespaces partition the cache even when
// app, machine, and space all coincide — the multi-tenant server's
// isolation guarantee.
func TestBoundNSTenantIsolation(t *testing.T) {
	c := NewEvalCache()
	sp := cacheSpace()
	pt := space.Point{2, 3}

	c.BoundNS("gs2", "mcr", "tenant-a", sp).Store(pt, 7.0)
	if _, ok := c.BoundNS("gs2", "mcr", "tenant-b", sp).Lookup(pt); ok {
		t.Error("tenant-b read tenant-a's measurement")
	}
	if _, ok := c.BoundNS("gs2", "mcr", "", sp).Lookup(pt); ok {
		t.Error("the shared namespace read a tenant's measurement")
	}
	if v, ok := c.BoundNS("gs2", "mcr", "tenant-a", sp).Lookup(pt); !ok || v != 7.0 {
		t.Errorf("tenant-a Lookup = (%v, %v), want (7, true)", v, ok)
	}
}

func TestEvalCachePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cache.json")
	c, err := OpenEvalCache(path)
	if err != nil {
		t.Fatalf("OpenEvalCache(missing): %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("missing file opened with %d entries", c.Len())
	}
	sp := cacheSpace()
	b := c.BoundNS("app", "m", "", sp)
	b.Store(space.Point{1, 2}, 3.25)
	b.Store(space.Point{4, 5}, 6.5)
	if err := c.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}

	c2, err := OpenEvalCache(path)
	if err != nil {
		t.Fatalf("OpenEvalCache(reload): %v", err)
	}
	if c2.Len() != 2 {
		t.Errorf("reloaded Len = %d, want 2", c2.Len())
	}
	v, ok := c2.BoundNS("app", "m", "", sp).Lookup(space.Point{1, 2})
	if !ok || v != 3.25 {
		t.Errorf("reloaded Lookup = (%v, %v), want (3.25, true)", v, ok)
	}
}

func TestOpenEvalCacheCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEvalCache(path); err == nil {
		t.Error("corrupt cache file opened without error")
	}
}

func TestEvalCacheInMemorySaveIsNoop(t *testing.T) {
	c := NewEvalCache()
	c.BoundNS("a", "m", "", cacheSpace()).Store(space.Point{0, 0}, 1)
	if err := c.Save(); err != nil {
		t.Errorf("in-memory Save: %v", err)
	}
}
