package server

import (
	"container/heap"
	"sync"
	"time"
)

// numShards is the number of session shards New builds. Shards are
// cheap (a mutex, a map, a deadline heap); the count only needs to
// exceed the expected lock contention, not the session count.
const numShards = 16

// A shard owns a disjoint subset of the session table, selected by
// hashing the session id. Every protocol message touches exactly one
// shard and takes no lock of any other shard, so shards scale
// independently; the only cross-shard walk is the explicit ExpireNow
// sweep (and Stats), never the dispatch hot path.
//
// Each shard also owns a deadline queue: a min-heap with one lease
// entry per session and at most one straggler entry per session with
// outstanding work. Entries are lazy — a session touch does not
// update the heap; instead a popped entry re-checks the session's
// true deadline and re-pushes itself when the deadline moved. A
// dispatch therefore pays O(expired) heap pops, not the O(n log n)
// full-table sweep the global lock used to run on every message.
//
// Lock order: shard.mu before session.mu, always. Session methods
// never take a shard lock.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
	dq       deadlineQueue
}

// entryKind distinguishes the two deadline families in one heap.
type entryKind uint8

const (
	leaseEntry     entryKind = iota // session idle-lease expiry
	stragglerEntry                  // overdue hand-outs
)

// deadlineEntry schedules one future check of one session.
type deadlineEntry struct {
	at   time.Time
	num  int64 // numeric session id: deterministic tie-break
	id   string
	kind entryKind
}

// deadlineQueue is a min-heap ordered by (at, num, kind) so that
// equal deadlines pop in registration order, keeping expiry logs and
// counter schedules reproducible run to run.
type deadlineQueue []deadlineEntry

func (q deadlineQueue) Len() int { return len(q) }
func (q deadlineQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	if q[i].num != q[j].num {
		return q[i].num < q[j].num
	}
	return q[i].kind < q[j].kind
}
func (q deadlineQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *deadlineQueue) Push(x any)   { *q = append(*q, x.(deadlineEntry)) }
func (q *deadlineQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// shardFor hashes a session id onto its owning shard. The FNV-1a
// round is inlined over the string bytes: hash/fnv's New32a returns a
// heap-allocated hash.Hash32 and Write needs a []byte conversion, two
// allocations this dispatch-path function must not pay per message.
// The constants are FNV-1a's, so shard assignment is identical to the
// previous fnv.New32a implementation.
//
//harmonyvet:allocfree
func (s *Server) shardFor(id string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// expireDue pops every deadline entry of the shard that is due at
// now and applies it: lease entries garbage-collect idle sessions,
// straggler entries re-issue or forfeit overdue proposals. Entries
// whose true deadline moved (the session was touched since the entry
// was pushed) are re-pushed at the new deadline — the lazy-heap
// discipline that makes the check O(expired). Returns the number of
// sessions collected.
func (s *Server) expireDue(sh *shard, now time.Time) int {
	if s.SessionTimeout <= 0 && s.ReportTimeout <= 0 {
		return 0
	}
	// Expiry log lines are collected under the lock and emitted after
	// it is released: Logf is an injected callback that may block or
	// re-enter the server, so lockorder forbids it under a shard lock.
	type leaseExpiry struct {
		id   string
		idle time.Duration
	}
	var expired []leaseExpiry
	sh.mu.Lock()
	collected := 0
	for len(sh.dq) > 0 && !sh.dq[0].at.After(now) {
		e := heap.Pop(&sh.dq).(deadlineEntry)
		ss, ok := sh.sessions[e.id]
		if !ok {
			continue // session already ended (done, or lease-collected)
		}
		switch e.kind {
		case leaseEntry:
			if ok, idle := s.expireLeaseLocked(sh, ss, now); ok {
				collected++
				expired = append(expired, leaseExpiry{id: ss.id, idle: idle})
			}
		case stragglerEntry:
			s.expireStragglerEntryLocked(sh, ss, now)
		}
	}
	sh.mu.Unlock()
	for _, e := range expired {
		s.Logf("harmony server: session %s lease expired after %v idle", e.id, e.idle)
	}
	return collected
}

// expireLeaseLocked applies one popped lease entry: collect the
// session if its lease has run out, otherwise re-push the entry at
// the session's true lease deadline. Returns whether the session was
// collected and its idle duration, so the caller can log after
// releasing sh.mu. The caller holds sh.mu.
func (s *Server) expireLeaseLocked(sh *shard, ss *session, now time.Time) (bool, time.Duration) {
	collected, idle, deadline := s.collectIdleLocked(sh, ss, now)
	if !collected {
		heap.Push(&sh.dq, deadlineEntry{at: deadline, num: ss.num, id: ss.id, kind: leaseEntry})
	}
	return collected, idle
}

// collectIdleLocked is the lease rule of both expiry paths (expireDue
// and ExpireNow): a session idle for SessionTimeout or longer is
// deleted from its shard. It returns whether the session was
// collected, its idle time, and when its lease runs out. Equality
// collects, as the deadline heap pops an entry due at now: a strict
// rule would re-push that entry at now and the pop loop would take it
// again forever. The caller holds sh.mu.
func (s *Server) collectIdleLocked(sh *shard, ss *session, now time.Time) (bool, time.Duration, time.Time) {
	ss.mu.Lock()
	last := ss.effectiveLastActiveLocked(now)
	ss.mu.Unlock()
	idle := now.Sub(last)
	if idle < s.SessionTimeout {
		return false, idle, last.Add(s.SessionTimeout)
	}
	delete(sh.sessions, ss.id)
	s.stats.sessionsExpired.Add(1)
	return true, idle, time.Time{}
}

// expireStragglerEntryLocked applies one popped straggler entry:
// run the session's straggler expiry, then re-arm if work is still
// outstanding. The caller holds sh.mu; stragglerArmed is guarded by
// sh.mu, not ss.mu.
func (s *Server) expireStragglerEntryLocked(sh *shard, ss *session, now time.Time) {
	ss.mu.Lock()
	ss.expireStragglersLocked(now)
	next, outstanding := ss.stragglerDeadlineLocked()
	ss.mu.Unlock()
	if outstanding {
		heap.Push(&sh.dq, deadlineEntry{at: next, num: ss.num, id: ss.id, kind: stragglerEntry})
		return
	}
	ss.stragglerArmed = false
}

// armStraggler schedules a straggler check for the session if it has
// outstanding work and no entry already queued. Called after every
// session message, outside any session lock.
func (s *Server) armStraggler(sh *shard, ss *session) {
	if s.ReportTimeout <= 0 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ss.stragglerArmed {
		return
	}
	ss.mu.Lock()
	next, outstanding := ss.stragglerDeadlineLocked()
	ss.mu.Unlock()
	if !outstanding {
		return
	}
	ss.stragglerArmed = true
	heap.Push(&sh.dq, deadlineEntry{at: next, num: ss.num, id: ss.id, kind: stragglerEntry})
}

// outstandingLocked returns when the oldest and the newest of the
// window's live hand-outs were issued, and whether there are any. The
// caller holds ss.mu.
func (ss *session) outstandingLocked() (oldest, newest time.Time, ok bool) {
	for i := range ss.win.hands {
		h := &ss.win.hands[i]
		if !h.live() {
			continue
		}
		if !ok || h.issued.Before(oldest) {
			oldest = h.issued
		}
		if !ok || h.issued.After(newest) {
			newest = h.issued
		}
		ok = true
	}
	return oldest, newest, ok
}

// stragglerDeadlineLocked returns the earliest straggler deadline of
// the session's outstanding work, and whether any work is
// outstanding. The caller holds ss.mu.
func (ss *session) stragglerDeadlineLocked() (time.Time, bool) {
	oldest, _, ok := ss.outstandingLocked()
	if ss.reportTimeout <= 0 || !ok {
		return time.Time{}, false
	}
	return oldest.Add(ss.reportTimeout), true
}

// effectiveLastActiveLocked is the activity timestamp the session
// lease is measured from. A client whose single evaluation
// legitimately takes longer than the lease would otherwise lose its
// session mid-run: an outstanding hand-out still inside its straggler
// deadline counts as activity, so the lease clock starts ticking only
// once the straggler window closes (at which point re-issue/forfeit
// takes over). The caller holds ss.mu.
func (ss *session) effectiveLastActiveLocked(now time.Time) time.Time {
	t := ss.lastActive
	_, newest, ok := ss.outstandingLocked()
	if ss.reportTimeout <= 0 || !ok {
		return t
	}
	busyUntil := newest.Add(ss.reportTimeout)
	if busyUntil.After(now) {
		busyUntil = now // still busy: active as of this instant
	}
	if busyUntil.After(t) {
		t = busyUntil
	}
	return t
}
