package server

import (
	"sync"
	"time"
)

// numShards is the number of session shards New builds. Shards are
// cheap (a mutex and a map); the count only needs to exceed the
// expected lock contention, not the session count.
const numShards = 16

// A shard owns a disjoint subset of the session table, selected by
// hashing the session id. Every protocol message touches exactly one
// shard and takes no lock of any other shard, so shards scale
// independently; the only cross-shard walk is the explicit ExpireNow
// sweep (and Stats), never the dispatch hot path.
//
// Lock order: shard.mu before session.mu, always. Session methods
// never take a shard lock.
type shard struct {
	mu       sync.Mutex
	sessions map[string]*session
}

// shardFor hashes a session id onto its owning shard. The FNV-1a
// round is inlined over the string bytes: hash/fnv's New32a returns a
// heap-allocated hash.Hash32 and Write needs a []byte conversion, two
// allocations this dispatch-path function must not pay per message.
// The constants are FNV-1a's, so shard assignment is identical to the
// previous fnv.New32a implementation.
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

// collectIdleLocked is the lease rule: a session idle for
// SessionTimeout or longer is deleted from its shard. It returns
// whether the session was collected and its idle time. The caller
// holds sh.mu.
func (s *Server) collectIdleLocked(sh *shard, ss *session, now time.Time) (bool, time.Duration) {
	ss.mu.Lock()
	last := ss.effectiveLastActiveLocked(now)
	ss.mu.Unlock()
	idle := now.Sub(last)
	if idle < s.SessionTimeout {
		return false, idle
	}
	delete(sh.sessions, ss.id)
	s.stats.sessionsExpired.Add(1)
	return true, idle
}

// outstandingLocked returns when the newest of the window's live
// hand-outs was issued, and whether there are any. The caller holds
// ss.mu.
func (ss *session) outstandingLocked() (newest time.Time, ok bool) {
	for i := range ss.win.hands {
		h := &ss.win.hands[i]
		if h.live() && (!ok || h.issued.After(newest)) {
			newest, ok = h.issued, true
		}
	}
	return newest, ok
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
	newest, ok := ss.outstandingLocked()
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
