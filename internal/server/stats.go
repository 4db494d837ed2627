package server

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of the server's operational
// counters. All counters except SessionsActive are cumulative since
// the server was created.
type Stats struct {
	// SessionsActive is the number of currently registered sessions.
	SessionsActive int64
	// SessionsExpired counts sessions garbage-collected because no
	// client touched them within Server.SessionTimeout.
	SessionsExpired int64
	// Fetches counts configuration replies handed to clients.
	Fetches int64
	// ReportsAccepted counts reports credited to a live configuration
	// or proposal.
	ReportsAccepted int64
	// ReportsDroppedStale counts reports acknowledged but discarded
	// because their tag was already retired (stragglers and
	// duplicates).
	ReportsDroppedStale int64
	// RoundsCompleted counts whole search rounds delivered to the
	// strategies of round-structured (Parallel) sessions. A round the
	// run budget cut short is abandoned, not delivered, and not counted.
	RoundsCompleted int64
	// ProposalsReissued counts proposals whose straggler deadline
	// lapsed and that were made available to the next fetch again.
	ProposalsReissued int64
	// ProposalsForfeited counts proposals abandoned after too many
	// straggler expiries, and proposals the space could not decode; a
	// forfeited proposal with no reports at all is delivered to the
	// strategy as a +Inf penalty so the round still completes.
	ProposalsForfeited int64
	// CacheHits counts proposals answered from the server's
	// evaluation cache without being handed to any client;
	// CacheMisses counts proposals that consulted the cache and went
	// to clients anyway. Both are zero when Server.Cache is unset.
	CacheHits   int64
	CacheMisses int64
	// AsyncCommitted counts every candidate a session's window
	// committed, in issue order, to its strategy — on every session;
	// values recorded while Parallel or shared-configuration sessions
	// had a dispatch of their own did not count those and are not
	// comparable. QueueStarved counts refills that left the bounded
	// window of an Async session short because its strategy was stalled
	// waiting on in-flight commits — the pipeline's analogue of an idle
	// worker slot; a Parallel session's stall is its round barrier, not
	// starvation, and a window of one is never left short.
	AsyncCommitted int64
	QueueStarved   int64
}

// counters is the live atomic backing of Stats. Sessions hold a
// pointer to their server's counters and update them lock-free, which
// keeps the session mutexes independent of the server mutex.
type counters struct {
	sessionsExpired     atomic.Int64
	fetches             atomic.Int64
	reportsAccepted     atomic.Int64
	reportsDroppedStale atomic.Int64
	roundsCompleted     atomic.Int64
	proposalsReissued   atomic.Int64
	proposalsForfeited  atomic.Int64
	cacheHits           atomic.Int64
	cacheMisses         atomic.Int64
	asyncCommitted      atomic.Int64
	queueStarved        atomic.Int64
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	var active int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		active += int64(len(sh.sessions))
		sh.mu.Unlock()
	}
	return Stats{
		SessionsActive:      active,
		SessionsExpired:     s.stats.sessionsExpired.Load(),
		Fetches:             s.stats.fetches.Load(),
		ReportsAccepted:     s.stats.reportsAccepted.Load(),
		ReportsDroppedStale: s.stats.reportsDroppedStale.Load(),
		RoundsCompleted:     s.stats.roundsCompleted.Load(),
		ProposalsReissued:   s.stats.proposalsReissued.Load(),
		ProposalsForfeited:  s.stats.proposalsForfeited.Load(),
		CacheHits:           s.stats.cacheHits.Load(),
		CacheMisses:         s.stats.cacheMisses.Load(),
		AsyncCommitted:      s.stats.asyncCommitted.Load(),
		QueueStarved:        s.stats.queueStarved.Load(),
	}
}

// WriteStats writes the counters as an expvar-style text dump, one
// "harmony.<metric> <value>" line per counter, suitable for scraping
// or for periodic operational logging (harmonyd -stats-interval).
func (s *Server) WriteStats(w io.Writer) error {
	st := s.Stats()
	rows := []struct {
		name  string
		value int64
	}{
		{"sessions.active", st.SessionsActive},
		{"sessions.expired", st.SessionsExpired},
		{"fetches", st.Fetches},
		{"reports.accepted", st.ReportsAccepted},
		{"reports.dropped_stale", st.ReportsDroppedStale},
		{"rounds.completed", st.RoundsCompleted},
		{"proposals.reissued", st.ProposalsReissued},
		{"proposals.forfeited", st.ProposalsForfeited},
		{"cache.hits", st.CacheHits},
		{"cache.misses", st.CacheMisses},
		{"async.committed", st.AsyncCommitted},
		{"async.queue_starved", st.QueueStarved},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "harmony.%s %d\n", r.name, r.value); err != nil {
			return err
		}
	}
	return nil
}
