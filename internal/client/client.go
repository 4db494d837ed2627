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
// Client — one connection speaking JSON lines, one strict round trip
// per call — or a Mux, which multiplexes the concurrent calls of many
// sessions over one binary-protocol connection (mux.go).
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
	"errors"
	"fmt"
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
}

// Dial connects to a Harmony server at addr (host:port) with no
// deadlines and no reconnection.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a Harmony server at addr with the given
// fault-handling options.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.Backoff <= 0 {
		opts.Backoff = defaultBackoff
	}
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
// but still honours Options deadlines set via SetOptions.
func NewFromConn(conn *proto.Conn) *Client { return &Client{conn: conn} }

// SetOptions replaces the fault-handling options; useful with
// NewFromConn where DialOptions is not involved.
func (c *Client) SetOptions(opts Options) {
	if opts.Backoff <= 0 {
		opts.Backoff = defaultBackoff
	}
	c.opts = opts
}

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
	// Surrogate asks the server to screen proposals with its analytic
	// performance model for App, when it has one: configurations the
	// model ranks confidently worse are answered to the search at their
	// predicted value without ever being fetched by a client. Best
	// always returns a genuinely measured configuration. Servers
	// without a model for App ignore the flag.
	Surrogate bool
	// SurrogateKeep is the fraction of proposals to actually evaluate
	// when Surrogate is set (0 < keep <= 1); 0 selects the server's
	// default.
	SurrogateKeep float64
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

// transport carries one protocol exchange: it sends msg, waits for the
// reply and turns a server error reply into an error. Client and Mux
// are the two transports. The message travels by value: a pointer
// passed through the interface would put every request on the heap,
// where Mux.Call otherwise keeps it on the caller's stack.
type transport interface {
	roundTrip(msg proto.Message) (*proto.Message, error)
}

// Session is a registered tuning session, obtained from a Client or a
// Mux. It is used by one goroutine at a time; concurrent clients of
// one session each Attach their own.
type Session struct {
	t   transport
	id  string
	tag int // tag of the last fetched configuration
}

// Register creates a tuning session on the server.
func (c *Client) Register(reg Registration) (*Session, error) { return register(c, reg) }

func register(t transport, reg Registration) (*Session, error) {
	if reg.Space == nil {
		return nil, fmt.Errorf("client: registration needs a parameter space")
	}
	reply, err := t.roundTrip(proto.Message{
		Type:          proto.TypeRegister,
		App:           reg.App,
		Machine:       reg.Machine,
		Strategy:      reg.Strategy,
		Space:         proto.EncodeSpace(reg.Space),
		MaxRuns:       reg.MaxRuns,
		Reporters:     reg.Reporters,
		Parallel:      reg.Parallel,
		Seed:          reg.Seed,
		CacheNS:       reg.CacheNS,
		Surrogate:     reg.Surrogate,
		SurrogateKeep: reg.SurrogateKeep,
		Async:         reg.Async,
		AsyncDepth:    reg.AsyncDepth,
	})
	if err != nil {
		return nil, err
	}
	if reply.Type != proto.TypeRegistered || reply.Session == "" {
		return nil, fmt.Errorf("client: unexpected register reply %q", reply.Type)
	}
	return &Session{t: t, id: reply.Session}, nil
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
// connection) is retried up to Options.Retries times, reconnecting
// with exponential backoff before each retry and re-sending the same
// message. A server error reply is not a transport failure and is
// never retried.
//
// Retried messages are safe for register (a duplicated session is
// garbage-collected by the server's lease) and idempotent for fetch,
// best, and done. A retried report whose first copy did arrive is
// de-duplicated server-side through the tag it echoes: a tag is
// answered once, whatever the number of reporters per configuration.
//
// A message that failed to encode (proto.ErrMarshal) is not a
// transport fault — reconnecting and re-encoding the identical
// message fails identically — so it is surfaced immediately instead
// of burning the retry budget.
func (c *Client) roundTrip(msg proto.Message) (*proto.Message, error) {
	reply, err := c.try(&msg)
	backoff := c.opts.Backoff
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	for attempt := 0; retryable(err) && attempt < c.opts.Retries && c.addr != ""; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		if rerr := c.connect(); rerr != nil {
			err = rerr
			continue
		}
		reply, err = c.try(&msg)
	}
	if err != nil {
		return nil, err
	}
	if reply.Type == proto.TypeError {
		return nil, fmt.Errorf("client: server error: %s", reply.Error)
	}
	return reply, nil
}

// retryable reports whether a failed round trip is worth a
// reconnect-and-resend. Transport faults are; an encoding fault
// (proto.ErrMarshal) is not, because reconnecting and re-encoding the
// identical message fails identically.
func retryable(err error) bool {
	return err != nil && !errors.Is(err, proto.ErrMarshal)
}

// try performs one send/receive exchange under the I/O deadline. A
// failure to arm the deadline (the connection is already dead) fails
// the attempt immediately so roundTrip's reconnect path takes over,
// instead of silently performing an unbounded exchange.
func (c *Client) try(msg *proto.Message) (*proto.Message, error) {
	if c.opts.Timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.opts.Timeout)); err != nil {
			return nil, fmt.Errorf("client: set deadline: %w", err)
		}
		// Disarming can only fail on an already-broken connection; the
		// next exchange surfaces that on its own.
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	if err := c.conn.Send(msg); err != nil {
		return nil, err
	}
	return c.conn.Recv()
}

// Fetch asks the server which configuration to use next. It returns
// the parameter values, and converged=true once the search has
// settled (after which the returned values are the tuned best and no
// Report is expected). Fetch is idempotent: after a reconnect it can
// simply be called again, and the tag of the reply supersedes
// whatever was outstanding.
func (s *Session) Fetch() (values map[string]string, converged bool, err error) {
	reply, err := s.t.roundTrip(proto.Message{Type: proto.TypeFetch, Session: s.id})
	if err != nil {
		return nil, false, err
	}
	if reply.Type != proto.TypeConfig {
		return nil, false, fmt.Errorf("client: unexpected fetch reply %q", reply.Type)
	}
	s.tag = reply.Tag
	return reply.Values, reply.Converged, nil
}

// Report delivers the performance measured under the configuration
// from the preceding Fetch. Lower is better. The report echoes that
// fetch's tag, so a report that arrives after the server retired the
// hand-out (straggler timeout, a committed configuration) is dropped
// server-side instead of corrupting the next measurement.
func (s *Session) Report(perf float64) error {
	reply, err := s.t.roundTrip(proto.Message{
		Type: proto.TypeReport, Session: s.id, Perf: perf, Tag: s.tag,
	})
	if err != nil {
		return err
	}
	if reply.Type != proto.TypeOK {
		return fmt.Errorf("client: unexpected report reply %q", reply.Type)
	}
	return nil
}

// Best returns the best configuration and objective seen so far.
func (s *Session) Best() (values map[string]string, perf float64, err error) {
	reply, err := s.t.roundTrip(proto.Message{Type: proto.TypeBest, Session: s.id})
	if err != nil {
		return nil, 0, err
	}
	if reply.Type != proto.TypeBestReply {
		return nil, 0, fmt.Errorf("client: unexpected best reply %q", reply.Type)
	}
	return reply.Values, reply.Perf, nil
}

// Done ends the session on the server.
func (s *Session) Done() error {
	reply, err := s.t.roundTrip(proto.Message{Type: proto.TypeDone, Session: s.id})
	if err != nil {
		return err
	}
	if reply.Type != proto.TypeOK {
		return fmt.Errorf("client: unexpected done reply %q", reply.Type)
	}
	return nil
}
