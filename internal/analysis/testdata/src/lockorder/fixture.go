// Package lockorder exercises the lockorder analyzer: every mutex is
// released on every return, and the sharded server's locking contract
// holds (one shard lock at a time, nothing blocking under it, the
// deadline heap owned by its shard's mutex, shard.mu strictly before
// session.mu).
package lockorder

import (
	"container/heap"
	"os"
	"sync"
)

type session struct {
	mu sync.Mutex
	id string
}

type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
	dq       deadlineQueue
}

type deadlineEntry struct {
	at int64
	id string
}

type deadlineQueue []deadlineEntry

func (q deadlineQueue) Len() int           { return len(q) }
func (q deadlineQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q deadlineQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *deadlineQueue) Push(x any)        { *q = append(*q, x.(deadlineEntry)) }
func (q *deadlineQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type server struct {
	logf func(string, ...any)
}

// No goroutine may hold two shard mutexes.
func doubleShard(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `acquires shard lock b\.mu while already holding shard lock a\.mu`
	b.mu.Unlock()
}

// Lock order: shard.mu strictly before session.mu.
func sessionThenShard(sh *shard, ss *session) {
	ss.mu.Lock()
	sh.mu.Lock() // want `acquires shard lock sh\.mu while session lock ss\.mu is held`
	sh.mu.Unlock()
	ss.mu.Unlock()
}

// No channel operation under a shard lock.
func sendUnderLock(sh *shard, ch chan int) {
	sh.mu.Lock()
	ch <- 1 // want `channel send while shard lock sh\.mu is held`
	sh.mu.Unlock()
}

// No callback through a func value under a shard lock: it may block
// or re-enter the server.
func callbackUnderLock(s *server, sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.logf("dispatching") // want `calls through func value s\.logf .* while shard lock sh\.mu is held`
}

// The deadline heap is owned by its shard's lock.
func heapNoLock(sh *shard, e deadlineEntry) {
	heap.Push(&sh.dq, e) // want `deadline-heap mutation of sh\.dq without holding sh\.mu`
}

// Violations are transitive: a callee that acquires a shard lock, or
// that blocks, is flagged at the locked call site.
func lockOther(sh *shard) {
	sh.mu.Lock()
	sh.mu.Unlock()
}

func nestedLock(a, b *shard) {
	a.mu.Lock()
	lockOther(b) // want `calls lockOther, which acquires a shard lock, while shard lock a\.mu is held`
	a.mu.Unlock()
}

func logLine(msg string) {
	os.Stdout.WriteString(msg)
}

func ioUnderLock(sh *shard, msg string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	logLine(msg) // want `calls logLine, which calls os\.WriteString \(blocking I/O\), while shard lock sh\.mu is held`
}

// Functions named *Locked require their caller to hold a lock.
func (ss *session) retireLocked() {
	ss.id = ""
}

func missingLock(ss *session) {
	ss.retireLocked() // want `calls retireLocked, which by convention requires its caller to hold a lock, with no lock held`
}

// Negative: lock, unlock, then the blocking operation.
func sendAfterUnlock(sh *shard, ch chan int) {
	sh.mu.Lock()
	sh.mu.Unlock()
	ch <- 1
}

// Negative: interface method calls under a lock are the session state
// machine's design; only func-typed callbacks are forbidden.
type strategy interface{ Report(v float64) }

func strategyUnderLock(sh *shard, st strategy) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st.Report(1.5)
}

// Negative: the *Locked convention is satisfied by a held lock.
func properLocked(ss *session) {
	ss.mu.Lock()
	ss.retireLocked()
	ss.mu.Unlock()
}

// Negative: heap mutation under the owning shard's lock.
func heapUnderLock(sh *shard, e deadlineEntry) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	heap.Push(&sh.dq, e)
}

// A justified suppression keeps the finding out of the report.
func suppressedSend(sh *shard, ch chan int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	//harmonyvet:ignore lockorder the channel has one slot per shard and a single consumer that never blocks; the send cannot stall the lock
	ch <- 1
}

// Any sync mutex, not only a shard's or session's, must be released on
// every return.
type Guarded struct {
	mu sync.Mutex
	n  int
}

func EarlyReturn(g *Guarded, fail bool) int {
	g.mu.Lock()
	if fail {
		return -1 // want `return while g\.mu is locked`
	}
	n := g.n
	g.mu.Unlock()
	return n
}

func NeverUnlocked(g *Guarded) {
	g.mu.Lock() // want `locked but never unlocked`
	g.n++
}

func Deferred(g *Guarded, fail bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fail {
		return -1
	}
	return g.n
}

// CondStyle unlocks on the early path before returning; it must not
// be flagged.
func CondStyle(g *Guarded, fail bool) int {
	g.mu.Lock()
	if fail {
		g.mu.Unlock()
		return -1
	}
	n := g.n
	g.mu.Unlock()
	return n
}

func ByPointer(g *Guarded) int {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	return n
}

// A read lock is a lock: RUnlock must cover every return.
type table struct {
	mu   sync.RWMutex
	rows map[string]int
}

func (t *table) get(k string) (int, bool) {
	t.mu.RLock()
	v, ok := t.rows[k]
	if !ok {
		return 0, false // want `return while t\.mu is locked`
	}
	t.mu.RUnlock()
	return v, true
}

// A *Locked helper of any mutex owner may be called under that mutex.
func (t *table) sizeLocked() int { return len(t.rows) }

func (t *table) size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sizeLocked()
}
