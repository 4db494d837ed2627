// Package client is the application-side API of the Active Harmony
// on-line tuning protocol.
//
// Making an application tunable takes roughly the ten lines the paper
// reports for the PETSc examples:
//
//	c, _ := client.Dial(serverAddr)
//	sess, _ := c.Register(client.Registration{App: "gs2", Space: sp})
//	for step := 0; step < steps; step++ {
//		cfg, _, _ := sess.Fetch()
//		applyLayout(cfg["layout"])
//		elapsed := runTimeStep()
//		sess.Report(elapsed)
//	}
//	best, _, _ := sess.Best()
//
// There is one Session type. What carries its five calls is either a
// Client — one connection speaking JSON lines, one strict request/reply
// exchange at a time — or a Mux, which multiplexes the concurrent calls
// of many sessions over one binary-protocol connection (mux.go). Every
// call is one exchange, except that a Fetch after a Report is usually
// none: a report asks for the next configuration, and the server
// answers with it whenever that is the same answer a fetch would get
// (a shared-configuration session whose candidate the report
// completed). A steady round is then one exchange, as in Active
// Harmony's own client loop.
//
// The values map Fetch returns is the Session's own, as the target of
// Active Harmony's harmony_request_all is the application's variable
// rewritten in place: every Fetch clears it and writes the new
// configuration into it, so it is valid until the next Fetch on that
// Session, and a caller that wants to keep a configuration copies it.
// The map Best returns is a copy that belongs to the caller. Everything
// else of an exchange is reused too — a Session decodes replies into
// messages it owns, and a Mux recycles its per-call records — so a
// steady round allocates on the client only the value strings it
// decodes.
//
// Production deployments dial with Options to bound each protocol
// round trip with an I/O deadline and to reconnect with exponential
// backoff when the connection drops. Re-fetching after a reconnect is
// idempotent: the server hands out a candidate of the session's window
// again, and the hand-out tag it stamps on every fetch makes a report
// that raced a reconnect droppable server-side instead of being
// credited to the wrong measurement.
package client

import (
	"fmt"
	"maps"
	"net"
	"time"

	"harmony/internal/proto"
	"harmony/internal/space"
)

// Options tune the client's fault handling. The zero value keeps the
// original fail-fast behaviour: no deadlines, no reconnection.
type Options struct {
	// Timeout bounds each protocol round trip (send plus reply) with
	// an I/O deadline on the connection. 0 means no deadline.
	Timeout time.Duration
	// Retries is how many times a failed round trip is retried, each
	// attempt preceded by a reconnect. 0 disables reconnection.
	Retries int
	// Backoff is the delay before the first reconnect attempt,
	// doubling on every consecutive failure. 0 selects 50ms when
	// Retries > 0.
	Backoff time.Duration
}

const defaultBackoff = 50 * time.Millisecond

// Client is a connection to a Harmony tuning server. It is not safe
// for concurrent use; open one Client per goroutine.
type Client struct {
	conn *proto.Conn
	addr string // empty when wrapped around an existing conn (no redial)
	opts Options
	req  proto.Message // the current request: the JSON encoder would move a local copy to the heap
}

// Dial connects to a Harmony server at addr (host:port) with no
// deadlines and no reconnection.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a Harmony server at addr with the given
// fault-handling options.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	d := net.Dialer{Timeout: c.opts.Timeout}
	nc, err := d.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if c.conn != nil {
		// Replacing a dead connection: its close error carries nothing
		// the reconnect path can act on.
		_ = c.conn.Close()
	}
	c.conn = proto.NewConn(nc)
	return nil
}

// NewFromConn wraps an existing connection; used by tests with
// net.Pipe. A wrapped client cannot reconnect (it has no address)
// and runs with zero Options: no deadline, no retry.
func NewFromConn(conn *proto.Conn) *Client { return &Client{conn: conn} }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Registration describes a tuning session to create.
type Registration struct {
	// App names the application; used in server logs and history.
	App string
	// Machine identifies the environment (optional).
	Machine string
	// Space is the tunable-parameter space.
	Space *space.Space
	// Strategy is one of the proto.Strategy* names; empty selects the
	// simplex.
	Strategy string
	// MaxRuns bounds the number of configurations the server will
	// propose (0 = strategy decides).
	MaxRuns int
	// Reporters is the number of clients that will report for each
	// configuration (one per node of a parallel job). 0 means 1.
	Reporters int
	// Parallel fans the independent proposals of each search round
	// out to concurrent clients: every Fetch may receive a different
	// configuration of the round (PRO's parallel-clients mode) rather
	// than all clients measuring the same one, and the search advances
	// when the whole round is in. On the server this is the fan-out
	// window draining at the round boundary. Each Session tracks the
	// tag of its last fetched configuration, so use one Session (via
	// Attach) per concurrent client.
	Parallel bool
	// Seed feeds randomised strategies.
	Seed int64
	// CacheNS namespaces the session's view of the server's persistent
	// evaluation cache; sessions in different namespaces never share
	// measurements. Empty selects the shared namespace.
	CacheNS string
	// Async selects the pipelined dispatch: the same fan-out window,
	// bounded by a depth instead of the round — the server keeps up to
	// AsyncDepth candidates in flight and every Fetch may receive a
	// different one, without waiting for a whole round to report. When
	// both Async and Parallel are set, Async wins. As with Parallel,
	// each concurrent client needs its own Session (via Attach).
	Async bool
	// AsyncDepth bounds how many candidates the server keeps in
	// flight for an Async session; 0 selects the server's default.
	AsyncDepth int
}

// transport carries one protocol exchange: it sends msg, decodes the
// reply into reply and turns a server error reply into an error. Client
// and Mux are the two transports. The message travels by value: a
// pointer passed through the interface would put every request on the
// heap, where the Mux copies it into a recycled call record instead.
type transport interface {
	roundTrip(msg proto.Message, reply *proto.Message) error
}

// Session is a registered tuning session, obtained from a Client or a
// Mux. It is used by one goroutine at a time; concurrent clients of
// one session each Attach their own. Replies are decoded into messages
// the Session owns, and Fetch rewrites one values map it owns.
type Session struct {
	t      transport
	id     string
	tag    int               // tag of the last fetched configuration
	reply  proto.Message     // the reply of the latest exchange
	next   proto.Message     // config a report's reply carried, for the next Fetch
	held   bool              // next holds a configuration no Fetch has returned
	values map[string]string // what Fetch returns, rewritten by every Fetch
}

// Register creates a tuning session on the server.
func (c *Client) Register(reg Registration) (*Session, error) { return register(c, reg) }

func register(t transport, reg Registration) (*Session, error) {
	if reg.Space == nil {
		return nil, fmt.Errorf("client: registration needs a parameter space")
	}
	s := &Session{t: t}
	err := t.roundTrip(proto.Message{
		Type:       proto.TypeRegister,
		App:        reg.App,
		Machine:    reg.Machine,
		Strategy:   reg.Strategy,
		Space:      proto.EncodeSpace(reg.Space),
		MaxRuns:    reg.MaxRuns,
		Reporters:  reg.Reporters,
		Parallel:   reg.Parallel,
		Seed:       reg.Seed,
		CacheNS:    reg.CacheNS,
		Async:      reg.Async,
		AsyncDepth: reg.AsyncDepth,
	}, &s.reply)
	if err != nil {
		return nil, err
	}
	if s.reply.Type != proto.TypeRegistered || s.reply.Session == "" {
		return nil, fmt.Errorf("client: unexpected register reply %q", s.reply.Type)
	}
	s.id = s.reply.Session
	return s, nil
}

// Attach joins an existing session (for example, a parallel job where
// rank 0 registered and broadcast the session id).
func (c *Client) Attach(sessionID string) *Session {
	return &Session{t: c, id: sessionID}
}

// ID returns the server-assigned session identifier.
func (s *Session) ID() string { return s.id }

// roundTrip sends msg and waits for the reply, applying the
// configured I/O deadline. A transport failure (timeout, dropped
// connection; encoding a message cannot fail, so every error is one)
// is retried up to Options.Retries times, reconnecting with
// exponential backoff before each retry and re-sending the same
// message. A server error reply is not a transport failure and is
// never retried.
//
// Retried messages are safe for register (a duplicated session is
// garbage-collected by the server's lease) and idempotent for fetch,
// best, and done. A retried report whose first copy did arrive is
// de-duplicated server-side through the tag it echoes: a tag is
// answered once, whatever the number of reporters per configuration.
// The retry is then answered ok, not with the next configuration the
// lost reply carried, so the next Fetch asks the server, which hands
// that configuration out again under a new tag.
func (c *Client) roundTrip(msg proto.Message, reply *proto.Message) error {
	c.req = msg
	err := c.try(reply)
	backoff := c.opts.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	for attempt := 0; err != nil && attempt < c.opts.Retries && c.addr != ""; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		if rerr := c.connect(); rerr != nil {
			err = rerr
			continue
		}
		err = c.try(reply)
	}
	if err != nil {
		return err
	}
	if reply.Type == proto.TypeError {
		return fmt.Errorf("client: server error: %s", reply.Error)
	}
	return nil
}

// try performs one send/receive exchange under the I/O deadline. A
// failure to arm the deadline (the connection is already dead) fails
// the attempt immediately so roundTrip's reconnect path takes over,
// instead of silently performing an unbounded exchange.
func (c *Client) try(reply *proto.Message) error {
	if c.opts.Timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.opts.Timeout)); err != nil {
			return fmt.Errorf("client: set deadline: %w", err)
		}
		// Disarming can only fail on an already-broken connection; the
		// next exchange surfaces that on its own.
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	if err := c.conn.Send(&c.req); err != nil {
		return err
	}
	return c.conn.RecvInto(reply)
}

// Fetch asks the server which configuration to use next. It returns
// the parameter values, and converged=true once the search has
// settled (after which the returned values are the tuned best and no
// Report is expected). When the preceding Report's reply carried the
// next configuration, Fetch returns it without contacting the server;
// otherwise it asks. Fetch is idempotent: after a reconnect it can
// simply be called again, and the tag of the reply supersedes
// whatever was outstanding.
//
// The values are the Session's own map, cleared and rewritten by every
// Fetch like harmony_request_all's target: they stay valid until the
// next Fetch on this Session, and a caller that keeps them past it
// copies them. A reply with no values returns nil.
func (s *Session) Fetch() (values map[string]string, converged bool, err error) {
	reply := &s.next
	if !s.held {
		reply = &s.reply
		if err := s.t.roundTrip(proto.Message{Type: proto.TypeFetch, Session: s.id}, reply); err != nil {
			return nil, false, err
		}
		if reply.Type != proto.TypeConfig {
			return nil, false, fmt.Errorf("client: unexpected fetch reply %q", reply.Type)
		}
	}
	s.held = false
	s.tag = reply.Tag
	if len(reply.Values) == 0 {
		return nil, reply.Converged, nil
	}
	if s.values == nil {
		s.values = make(map[string]string, len(reply.Values))
	}
	clear(s.values)
	maps.Copy(s.values, reply.Values)
	return s.values, reply.Converged, nil
}

// Report delivers the performance measured under the configuration
// from the preceding Fetch. Lower is better. The report echoes that
// fetch's tag, so a report that arrives after the server retired the
// hand-out (straggler timeout, a committed configuration) is dropped
// server-side instead of corrupting the next measurement. It also asks
// for the next configuration: the server answers with it when the
// report completed the candidate of a shared-configuration session,
// and the next Fetch returns it with no round trip. That hand-out is
// the session's as soon as the reply is sent, so a client that reports
// and then stops leaves it outstanding until it is reported, the
// straggler deadline retires it, or the session ends.
func (s *Session) Report(perf float64) error {
	err := s.t.roundTrip(proto.Message{
		Type: proto.TypeReport, Session: s.id, Perf: perf, Tag: s.tag, Next: true,
	}, &s.reply)
	if err != nil {
		return err
	}
	switch s.reply.Type {
	case proto.TypeOK:
	case proto.TypeConfig:
		s.reply, s.next = s.next, s.reply
		s.held = true
	default:
		return fmt.Errorf("client: unexpected report reply %q", s.reply.Type)
	}
	return nil
}

// Best returns the best configuration and objective seen so far, the
// values as a new map that belongs to the caller. A configuration the
// preceding Report's reply carried is still the next Fetch's.
func (s *Session) Best() (values map[string]string, perf float64, err error) {
	if err := s.t.roundTrip(proto.Message{Type: proto.TypeBest, Session: s.id}, &s.reply); err != nil {
		return nil, 0, err
	}
	if s.reply.Type != proto.TypeBestReply {
		return nil, 0, fmt.Errorf("client: unexpected best reply %q", s.reply.Type)
	}
	return maps.Clone(s.reply.Values), s.reply.Perf, nil
}

// Done ends the session on the server.
func (s *Session) Done() error {
	if err := s.t.roundTrip(proto.Message{Type: proto.TypeDone, Session: s.id}, &s.reply); err != nil {
		return err
	}
	if s.reply.Type != proto.TypeOK {
		return fmt.Errorf("client: unexpected done reply %q", s.reply.Type)
	}
	return nil
}
