package history

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
// Entries are keyed by a digest of the full evaluation identity:
// application name, machine cost-model fingerprint
// (cluster.Machine.Fingerprint), tuning-space shape, and the encoded
// lattice point. Any change to the machine model or the space
// definition therefore misses cleanly instead of returning a stale
// timing, and two applications sharing a space (or two spaces sharing
// coordinate tuples) can never collide.
//
// EvalCache is safe for concurrent use. The zero value is unusable;
// construct with NewEvalCache or OpenEvalCache.
type EvalCache struct {
	mu      sync.Mutex
	path    string // "" for in-memory caches
	entries map[string]float64

	hits, misses atomic.Int64
}

// NewEvalCache returns an empty in-memory cache (no persistence);
// Save is a no-op.
func NewEvalCache() *EvalCache {
	return &EvalCache{entries: make(map[string]float64)}
}

// OpenEvalCache loads the cache file at path, starting empty if the
// file does not exist yet. Save writes back to the same path.
func OpenEvalCache(path string) (*EvalCache, error) {
	c := &EvalCache{path: path, entries: make(map[string]float64)}
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
	if err := json.Unmarshal(data, &c.entries); err != nil {
		return nil, fmt.Errorf("history: corrupt evaluation cache %s: %w", path, err)
	}
	return c, nil
}

// Save atomically persists the cache to its path (write to a
// temporary file, then rename). In-memory caches save nowhere.
func (c *EvalCache) Save() error {
	if c.path == "" {
		return nil
	}
	c.mu.Lock()
	data, err := json.MarshalIndent(c.entries, "", "  ")
	c.mu.Unlock()
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
	return len(c.entries)
}

// Counters returns the cumulative lookup hit and miss counts since
// the cache was opened.
func (c *EvalCache) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

func (c *EvalCache) lookup(key []byte) (float64, bool) {
	c.mu.Lock()
	v, ok := c.entries[string(key)] // indexing by a converted slice copies nothing
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

func (c *EvalCache) store(key string, v float64) {
	c.mu.Lock()
	c.entries[key] = v
	c.mu.Unlock()
}

// Bound binds the cache to one evaluation identity, yielding the
// point-level view the tuning engine consumes (core.Options.Cache).
// app names the application and its workload (include anything that
// changes the objective: problem size, iteration counts);
// machineFingerprint must be cluster.Machine.Fingerprint() of the
// simulated machine, or any string that changes whenever the
// execution environment's cost model does.
func (c *EvalCache) Bound(app, machineFingerprint string, sp *space.Space) *BoundCache {
	return c.BoundNS(app, machineFingerprint, "", sp)
}

// BoundNS is Bound with an additional tenant namespace folded into the
// evaluation identity. Sessions bound with different namespaces never
// observe each other's measurements even when app, machine, and space
// coincide — the isolation a multi-tenant server needs when two
// tenants run the same benchmark under conditions the space does not
// capture (build flags, input decks). The empty namespace is the
// shared default and is identical to Bound.
func (c *EvalCache) BoundNS(app, machineFingerprint, namespace string, sp *space.Space) *BoundCache {
	return &BoundCache{
		c:      c,
		prefix: fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00", app, machineFingerprint, namespace, spaceFingerprint(sp)),
	}
}

// BoundCache is an EvalCache scoped to one (application, machine,
// space) identity. It implements core.PointCache.
type BoundCache struct {
	c      *EvalCache
	prefix string
}

// Lookup returns the cached objective value for the point. It
// allocates nothing unless the identity prefix and the point's key
// together outgrow keyBufLen.
func (b *BoundCache) Lookup(pt space.Point) (float64, bool) {
	k := b.key(pt)
	return b.c.lookup(k[:])
}

// Store records a successful evaluation of the point.
func (b *BoundCache) Store(pt space.Point, v float64) {
	k := b.key(pt)
	b.c.store(string(k[:]), v)
}

// entryKey is an entry's key: a hex-encoded SHA-256 digest.
type entryKey [2 * sha256.Size]byte

// keyBufLen sizes the stack buffer a key's bytes are assembled in. It
// holds the identity of a 32-node machine (a 669-byte fingerprint) and
// a 16-parameter space; a longer identity spills to the heap, which
// costs an allocation and changes no key.
const keyBufLen = 1024

// key returns the entry key of the point: the hex SHA-256 digest of the
// identity prefix followed by the point's Key.
func (b *BoundCache) key(pt space.Point) (k entryKey) {
	var buf [keyBufLen]byte
	sum := sha256.Sum256(pt.AppendKey(append(buf[:0], b.prefix...)))
	hex.Encode(k[:], sum[:])
	return k
}

// spaceFingerprint renders the space shape canonically: parameter
// names, kinds, lattices, and enum values in order. Two spaces with
// equal fingerprints decode equal points identically.
func spaceFingerprint(sp *space.Space) string {
	var b strings.Builder
	for _, p := range sp.Params() {
		fmt.Fprintf(&b, "%s/%s/%d/%d/%d", p.Name, p.Kind, p.Min, p.Max, p.Step)
		for _, v := range p.Values {
			b.WriteString("/" + v)
		}
		b.WriteByte(';')
	}
	return b.String()
}
