package main

import (
	"fmt"
	"sync"
	"time"
)

// online is a workload made of whole tuning sessions against an
// in-process harmonyd on a loopback port. It is a closed loop: each of
// the W driver goroutines owns one connection and keeps exactly one
// request outstanding, visiting its live sessions round-robin, so the
// server sees W concurrent requests over a session table of W × live
// entries and never more runnable threads than the host has cores.
//
// Every repetition registers the same sessions in the same order and
// performs the same number of rounds per driver, so what each session
// is told and answers repeats exactly; only the timings differ.
type online struct {
	env
	binary bool // client.DialMux (binary frames), else client.Dial (JSON lines)
	window bool // async/parallel sessions through 4 attached handles, else shared simplex
	live   int  // live sessions per driver
	rounds int  // fetch→report rounds per driver per repetition
	stream int  // seed stream of this workload's sessions

	srv   *tuningServer
	conns []sessionConn
}

// handlesPerWindowSession is how many attached handles drive one
// window session, in a fixed fetch-all / report-all pattern.
const handlesPerWindowSession = 4

const onlineMaxRuns = 40

func (w *online) coldOnce() bool { return false }

// dial opens one connection of the workload's protocol.
func (w *online) dial() (sessionConn, error) {
	if w.binary {
		return dialBinary(w.srv.addr)
	}
	return dialJSON(w.srv.addr)
}

func (w *online) setup() error {
	var err error
	if w.srv, err = startServer(); err != nil {
		return err
	}
	w.conns = nil
	for i := 0; i < w.workers; i++ {
		c, err := w.dial()
		if err != nil {
			return err
		}
		w.conns = append(w.conns, c)
	}
	return nil
}

func (w *online) close() error {
	for _, c := range w.conns {
		_ = c.close() // the server close below reports what matters
	}
	w.conns = nil
	if w.srv == nil {
		return nil
	}
	err := w.srv.close()
	w.srv = nil
	return err
}

// liveSession is one registered session and its driver's own record of
// what it reported.
type liveSession struct {
	rec     sessionRecord
	cx, cy  int // optimum of this session's bowl
	sum     float64
	handles []session
}

func (s *liveSession) record(perf float64) {
	s.rec.sent++
	s.sum += perf
	if s.rec.sent == 1 {
		s.rec.first = perf
	}
	if s.rec.sent == 1 || perf < s.rec.minReported {
		s.rec.minReported = perf
		s.rec.costToBest = s.sum
	}
}

// driver is one closed-loop client: a goroutine, a connection, and the
// sessions it keeps alive.
type driver struct {
	w     *online
	index int
	conn  sessionConn
	tr    *tracer
	root  int

	slots    []*liveSession
	next     int // ordinal of the next session this driver registers
	ops      []float64
	segments []float64 // seconds per block of segmentRounds rounds, in order
	finished []*sessionRecord
}

// segmentRounds is how many rounds make one timed segment of a driver's
// lane: what a driver does in its n-th block repeats in every repetition.
const segmentRounds = 250

func (d *driver) register() (*liveSession, error) {
	ordinal := d.next
	d.next++
	id := d.index*1_000_000 + ordinal
	seed := inputSeed(d.w.seed, d.w.stream, id)
	s := &liveSession{rec: sessionRecord{id: id}, cx: int(seed % 41), cy: int(seed / 41 % 41)}
	reg := registration{strategy: "simplex", seed: seed, maxRuns: onlineMaxRuns}
	if d.w.window {
		if ordinal%2 == 0 {
			reg.strategy, reg.async = "ensemble", true
		} else {
			reg.strategy, reg.parallel = "pro", true
		}
	}
	end := d.span("client.register", id)
	first, err := d.conn.register(reg)
	end()
	if err != nil {
		return nil, fmt.Errorf("register session %d: %w", id, err)
	}
	s.handles = []session{d.traced(first, id)}
	if d.w.window {
		for len(s.handles) < handlesPerWindowSession {
			s.handles = append(s.handles, d.traced(d.conn.attach(first.ID()), id))
		}
	}
	return s, nil
}

// span records a client call, once the repetition's root span is open:
// the registrations that fill the session table beforehand are not part
// of the timed repetition and are not traced.
func (d *driver) span(name string, id int) func() {
	if d.tr == nil || d.root < 0 {
		return func() {}
	}
	i := d.tr.begin(name, d.root, id)
	return func() { d.tr.end(i) }
}

func (d *driver) traced(s session, id int) session {
	if d.tr == nil {
		return s
	}
	return &tracedSession{s, d, id}
}

// tracedSession records a span around each client call.
type tracedSession struct {
	session
	d  *driver
	id int
}

func (t *tracedSession) Fetch() (map[string]string, bool, error) {
	defer t.d.span("client.fetch", t.id)()
	return t.session.Fetch()
}

func (t *tracedSession) Report(perf float64) error {
	defer t.d.span("client.report", t.id)()
	return t.session.Report(perf)
}

func (t *tracedSession) Best() (map[string]string, float64, error) {
	defer t.d.span("client.best", t.id)()
	return t.session.Best()
}

func (t *tracedSession) Done() error {
	defer t.d.span("client.done", t.id)()
	return t.session.Done()
}

// fill registers the driver's live sessions, before the timed part.
func (d *driver) fill() error {
	for len(d.slots) < d.w.live {
		s, err := d.register()
		if err != nil {
			return err
		}
		d.slots = append(d.slots, s)
	}
	return nil
}

// step performs one visit to a session: a fetch→report round on each
// of its handles, or, once the search has converged, Best + Done and a
// new registration in its place. It returns the rounds completed.
func (d *driver) step(slot int) (int, error) {
	s := d.slots[slot]
	type fetched struct {
		h    session
		perf float64
		took time.Duration
	}
	var got [handlesPerWindowSession]fetched
	n := 0
	for _, h := range s.handles {
		t0 := time.Now()
		vals, converged, err := h.Fetch()
		took := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("session %d fetch: %w", s.rec.id, err)
		}
		if !converged {
			got[n] = fetched{h, bowl(vals, s.cx, s.cy), took}
			n++
		}
	}
	for _, f := range got[:n] {
		t0 := time.Now()
		if err := f.h.Report(f.perf); err != nil {
			return 0, fmt.Errorf("session %d report: %w", s.rec.id, err)
		}
		d.ops = append(d.ops, ms(f.took+time.Since(t0)))
		s.record(f.perf)
	}
	if n > 0 {
		return n, nil
	}
	_, best, err := s.handles[0].Best()
	if err != nil {
		return 0, fmt.Errorf("session %d best: %w", s.rec.id, err)
	}
	s.rec.bestPerf = best
	if err := s.handles[0].Done(); err != nil {
		return 0, fmt.Errorf("session %d done: %w", s.rec.id, err)
	}
	d.finished = append(d.finished, &s.rec)
	if d.slots[slot], err = d.register(); err != nil {
		return 0, err
	}
	return 0, nil
}

func (d *driver) run() error {
	t0, next := time.Now(), segmentRounds
	for done, slot := 0, 0; done < d.w.rounds; slot = (slot + 1) % len(d.slots) {
		n, err := d.step(slot)
		if err != nil {
			return err
		}
		if done += n; done >= next {
			now := time.Now()
			d.segments = append(d.segments, now.Sub(t0).Seconds())
			t0, next = now, next+segmentRounds
		}
	}
	return nil
}

// drain ends the sessions still live, after the timed part.
func (d *driver) drain() error {
	for _, s := range d.slots {
		if err := s.handles[0].Done(); err != nil {
			return fmt.Errorf("session %d done: %w", s.rec.id, err)
		}
	}
	d.slots = nil
	return nil
}

func (w *online) rep(tr *tracer) (*repResult, error) {
	r := &repResult{}
	before := w.srv.counters()
	drivers := make([]*driver, w.workers)
	for i := range drivers {
		drivers[i] = &driver{w: w, index: i, conn: w.conns[i], tr: tr, root: -1}
		if err := drivers[i].fill(); err != nil {
			return nil, err
		}
	}
	r.live = w.srv.counters().sessionsActive - before.sessionsActive

	errs := make([]error, len(drivers))
	err := timed(r, func() {
		if tr != nil {
			root := tr.begin("bench.rep", -1, 0)
			defer tr.end(root)
			for _, d := range drivers {
				d.root = root
			}
		}
		var wg sync.WaitGroup
		for i, d := range drivers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = d.run()
			}()
		}
		wg.Wait()
	})
	if err != nil {
		return nil, err
	}
	for i, d := range drivers {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, s := range d.slots {
			r.sent += int64(s.rec.sent)
		}
		if err := d.drain(); err != nil {
			return nil, err
		}
		r.ops = append(r.ops, d.ops...)
		r.lanes = append(r.lanes, closeLane(d.segments, r.wall))
		for _, rec := range d.finished {
			r.sessions = append(r.sessions, rec)
			r.sent += int64(rec.sent)
			r.prints = append(r.prints, fmt.Sprintf("session %d: sent %d first %x min %x cost %x best %x",
				rec.id, rec.sent, rec.first, rec.minReported, rec.costToBest, rec.bestPerf))
		}
	}
	after := w.srv.counters()
	r.srv = serverCounters{
		fetches: after.fetches - before.fetches, accepted: after.accepted - before.accepted,
		droppedStale: after.droppedStale - before.droppedStale,
		reissued:     after.reissued - before.reissued, forfeited: after.forfeited - before.forfeited,
		queueStarved: after.queueStarved - before.queueStarved, asyncCommitted: after.asyncCommitted - before.asyncCommitted,
	}
	r.evals = int(r.srv.accepted)
	r.attempted = len(r.ops)
	return r, nil
}

func (w *online) verify(last *repResult) error {
	if len(last.sessions) == 0 {
		return fmt.Errorf("no session converged in a repetition; rounds per driver too low for the session budget")
	}
	for _, rec := range last.sessions {
		if err := checkSession(rec); err != nil {
			return err
		}
	}
	if after := w.srv.counters(); after.sessionsActive != 0 {
		return fmt.Errorf("server holds %d sessions after every driver said Done", after.sessionsActive)
	}
	return checkReports(last.sent, last.srv.accepted, last.srv.droppedStale)
}

func (w *online) layers(r, plain *repResult, m metricSet) error {
	m["server.sessions_peak"] = float64(r.live)
	m["server.reissued"] = float64(r.srv.reissued)
	m["server.forfeited"] = float64(r.srv.forfeited)
	m["server.dropped_stale"] = float64(r.srv.droppedStale)
	m["server.queue_starved"] = float64(r.srv.queueStarved)
	m["server.async_committed"] = float64(r.srv.asyncCommitted)

	rounds := 2000
	if w.sz.quick {
		rounds = 100
	}
	pipe, err := pipeRoundUS(w.binary, rounds)
	if err != nil {
		return err
	}
	m["server.pipe_round_us"] = pipe
	if loopback := median(plain.ops) * 1e3; loopback > 0 {
		m["server.tcp_share"] = 1 - pipe/loopback
	}

	var us []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		c, err := w.dial()
		if err != nil {
			return err
		}
		s, err := c.register(registration{strategy: "simplex", maxRuns: onlineMaxRuns})
		if err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
		if err := s.Done(); err != nil {
			return err
		}
		_ = c.close() // probe teardown
	}
	m["client.dial_register_us"] = median(us)

	bin, js, err := probeProto()
	if err != nil {
		return err
	}
	if w.binary {
		m["proto.bin_encode_ns"], m["proto.bin_decode_ns"] = bin.encodeNS, bin.decodeNS
		m["proto.bin_bytes_per_msg"], m["proto.bin_allocs_per_msg"] = bin.bytesPerMsg, bin.allocsPerMsg
	} else {
		m["proto.json_encode_ns"], m["proto.json_decode_ns"] = js.encodeNS, js.decodeNS
		m["proto.json_bytes_per_msg"], m["proto.json_allocs_per_msg"] = js.bytesPerMsg, js.allocsPerMsg
	}
	return nil
}
