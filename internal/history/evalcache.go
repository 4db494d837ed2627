package history

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"harmony/internal/space"
)

// EvalCache is a content-addressed store of objective evaluations
// that persists across tuning sessions: a campaign restarted tomorrow
// — or a different strategy exploring the same space — answers
// repeated configurations from disk instead of re-running the
// application.
//
// An evaluation's identity is its application name, machine cost-model
// fingerprint (cluster.Machine.Fingerprint), namespace, tuning-space
// shape, and encoded lattice point. Any change to the machine model or
// the space definition therefore misses cleanly instead of returning a
// stale timing, and two applications sharing a space (or two spaces
// sharing coordinate tuples) can never collide.
//
// In memory a value is keyed by its binding (everything but the point,
// one BoundCache per identity) and the point's Key, so a lookup is one
// short-key map read. On disk it is keyed by a hex SHA-256 digest of
// the whole identity. Save computes the digests; an opened file's
// entries stay keyed by digest, unclaimed, until a binding's lookup or
// store of the same identity moves or replaces them, and only while
// some remain does a binding miss compute a digest.
//
// EvalCache is safe for concurrent use. The zero value is unusable;
// construct with NewEvalCache or OpenEvalCache.
type EvalCache struct {
	mu        sync.Mutex
	path      string                 // "" for in-memory caches
	unclaimed map[string]float64     // file entries by digest, not yet in a binding
	bindings  map[string]*BoundCache // by identity prefix

	hits, misses atomic.Int64
}

// NewEvalCache returns an empty in-memory cache (no persistence);
// Save is a no-op.
func NewEvalCache() *EvalCache {
	return &EvalCache{bindings: make(map[string]*BoundCache)}
}

// OpenEvalCache loads the cache file at path, starting empty if the
// file does not exist yet. Save writes back to the same path.
func OpenEvalCache(path string) (*EvalCache, error) {
	c := &EvalCache{path: path, bindings: make(map[string]*BoundCache)}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if len(data) == 0 {
		return c, nil
	}
	if err := json.Unmarshal(data, &c.unclaimed); err != nil {
		return nil, fmt.Errorf("history: corrupt evaluation cache %s: %w", path, err)
	}
	return c, nil
}

// Save atomically persists the cache to its path (write to a
// temporary file, then rename). In-memory caches save nowhere. It
// copies the entries under the lock and digests them outside it.
func (c *EvalCache) Save() error {
	if c.path == "" {
		return nil
	}
	c.mu.Lock()
	out := maps.Clone(c.unclaimed)
	if out == nil {
		out = make(map[string]float64)
	}
	points := make(map[string]map[string]float64, len(c.bindings))
	for prefix, b := range c.bindings {
		points[prefix] = maps.Clone(b.points)
	}
	c.mu.Unlock()
	for prefix, pts := range points {
		for k, v := range pts {
			d := digest(prefix, k)
			out[string(d[:])] = v
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	tmp := c.path + ".tmp"
	if dir := filepath.Dir(c.path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("history: %w", err)
		}
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	return nil
}

// Len reports the number of cached evaluations.
func (c *EvalCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.unclaimed)
	for _, b := range c.bindings {
		n += len(b.points)
	}
	return n
}

// Counters returns the cumulative lookup hit and miss counts since
// the cache was opened.
func (c *EvalCache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// BoundNS binds the cache to one evaluation identity, yielding the
// point-level view the tuning engine consumes (core.Options.Cache).
// app names the application and its workload (include anything that
// changes the objective: problem size, iteration counts);
// machineFingerprint must be cluster.Machine.Fingerprint() of the
// simulated machine, or any string that changes whenever the
// execution environment's cost model does. The tenant namespace is
// folded into the identity too: sessions bound with different
// namespaces never observe each other's measurements even when app,
// machine, and space coincide — the isolation a multi-tenant server
// needs when two tenants run the same benchmark under conditions the
// space does not capture (build flags, input decks). The empty
// namespace is the shared default.
//
// Every call with the same identity returns the same BoundCache, and
// only the first allocates.
func (c *EvalCache) BoundNS(app, machineFingerprint, namespace string, sp *space.Space) *BoundCache {
	var buf [keyBufLen]byte
	id := append(buf[:0], app...)
	id = append(id, 0)
	id = append(id, machineFingerprint...)
	id = append(id, 0)
	id = append(id, namespace...)
	id = append(id, 0)
	id = appendSpaceFingerprint(id, sp)
	id = append(id, 0)
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.bindings[string(id)] // indexing by a converted slice copies nothing
	if b == nil {
		b = &BoundCache{c: c, prefix: string(id), points: make(map[string]float64)}
		c.bindings[b.prefix] = b
	}
	return b
}

// BoundCache is an EvalCache scoped to one (application, machine,
// namespace, space) identity. It implements core.PointCache.
type BoundCache struct {
	c      *EvalCache
	prefix string             // the identity, as the digest's input begins
	points map[string]float64 // by point Key; guarded by c.mu
}

// pointBufLen sizes the stack buffer a point's Key is rendered in. It
// holds a 32-parameter point of three-digit levels with room to spare;
// a longer key spills to the heap, which costs an allocation and
// changes no key.
const pointBufLen = 256

// Lookup returns the cached objective value for the point. It
// allocates nothing unless the point's key outgrows pointBufLen or an
// opened file's entries are still unclaimed.
func (b *BoundCache) Lookup(pt space.Point) (float64, bool) {
	var buf [pointBufLen]byte
	k := pt.AppendKey(buf[:0])
	c := b.c
	c.mu.Lock()
	v, ok := b.points[string(k)]
	claim := !ok && len(c.unclaimed) > 0
	c.mu.Unlock()
	if claim {
		d := digest(b.prefix, string(k))
		c.mu.Lock()
		if v, ok = c.unclaimed[string(d[:])]; ok {
			delete(c.unclaimed, string(d[:]))
			b.points[string(k)] = v
		} else {
			v, ok = b.points[string(k)] // stored or claimed meanwhile
		}
		c.mu.Unlock()
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Store records a successful evaluation of the point, replacing any
// value an opened file holds for it.
func (b *BoundCache) Store(pt space.Point, v float64) {
	var buf [pointBufLen]byte
	k := pt.AppendKey(buf[:0])
	c := b.c
	c.mu.Lock()
	if len(c.unclaimed) == 0 {
		b.points[string(k)] = v
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	d := digest(b.prefix, string(k))
	c.mu.Lock()
	delete(c.unclaimed, string(d[:]))
	b.points[string(k)] = v
	c.mu.Unlock()
}

// entryKey is an entry's on-disk key: a hex-encoded SHA-256 digest.
type entryKey [2 * sha256.Size]byte

// keyBufLen sizes the stack buffers an identity's bytes are assembled
// in. It holds Fig. 2 large's identity, a 32-node machine (a 669-byte
// fingerprint) with the 32-weight space (1 226 bytes in all), and
// that of a 64-node machine (a 1 213-byte fingerprint, 1 770 in all),
// each followed by a point key of up to pointBufLen bytes; a longer
// identity spills to the heap, which costs an allocation and changes
// no key.
const keyBufLen = 2048

// digest returns the on-disk key of the point with Key k in the
// binding with identity prefix: the hex SHA-256 digest of prefix
// followed by k.
func digest(prefix, k string) (d entryKey) {
	var buf [keyBufLen]byte
	sum := sha256.Sum256(append(append(buf[:0], prefix...), k...))
	hex.Encode(d[:], sum[:])
	return d
}

// appendSpaceFingerprint appends the space shape, rendered
// canonically: parameter names, kinds, lattices, and enum values in
// order. Two spaces with equal fingerprints decode equal points
// identically.
func appendSpaceFingerprint(dst []byte, sp *space.Space) []byte {
	for _, p := range sp.Params() {
		dst = append(dst, p.Name...)
		dst = append(dst, '/')
		dst = append(dst, p.Kind.String()...)
		dst = append(dst, '/')
		dst = strconv.AppendInt(dst, p.Min, 10)
		dst = append(dst, '/')
		dst = strconv.AppendInt(dst, p.Max, 10)
		dst = append(dst, '/')
		dst = strconv.AppendInt(dst, p.Step, 10)
		for _, v := range p.Values {
			dst = append(dst, '/')
			dst = append(dst, v...)
		}
		dst = append(dst, ';')
	}
	return dst
}
