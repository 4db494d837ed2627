// Package proto defines the wire protocol between Active Harmony
// clients (tunable applications) and the Harmony tuning server.
//
// The protocol is line-delimited JSON over a stream transport: each
// message is one JSON object terminated by '\n'. A client registers a
// tuning session by describing its parameter space, then repeatedly
// fetches the configuration to use next and reports the performance
// it observed. This is the "on-line" tuning mode: the application
// keeps running while the server walks the simplex.
//
//	C: {"type":"register","app":"gs2","strategy":"simplex","space":[...]}
//	S: {"type":"registered","session":"s1"}
//	C: {"type":"fetch","session":"s1"}
//	S: {"type":"config","tag":1,"values":{"layout":"yxles"}}
//	C: {"type":"report","session":"s1","tag":1,"next":true,"perf":16.25}
//	S: {"type":"config","tag":2,"values":{"layout":"lxyes"}}
//	C: {"type":"report","session":"s1","tag":2,"next":true,"perf":14.5}
//	S: ...
//
// Send writes the canonical line of a Message, as above: its members in
// struct field order, zero members other than type left out, values
// keys sorted (json.go has the whole rule). A peer may write a message
// as any JSON object, in any order and spacing; it means what
// encoding/json's Unmarshal makes of it into a Message.
//
// Every fetch reply carries a tag the report echoes. A steady round of
// a shared-configuration session is one exchange: the report asks for
// the next configuration ("next") and the reply is the config a fetch
// would have returned. A report the server cannot answer that way (a
// stale tag, a candidate still waiting for other reporters, a Parallel
// or Async session) is answered {"type":"ok"}, and the client fetches.
package proto

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"harmony/internal/space"
)

// Message types.
const (
	TypeRegister   = "register"
	TypeRegistered = "registered"
	TypeFetch      = "fetch"
	TypeConfig     = "config"
	TypeReport     = "report"
	TypeBest       = "best"
	TypeBestReply  = "best_reply"
	TypeDone       = "done"
	TypeOK         = "ok"
	TypeError      = "error"
)

// Strategy names accepted in register messages.
const (
	StrategySimplex    = "simplex"
	StrategyCoordinate = "coordinate"
	StrategyRandom     = "random"
	StrategySystematic = "systematic"
	StrategyExhaustive = "exhaustive"
	StrategyPRO        = "pro"
	StrategyEnsemble   = "ensemble"
)

// ParamSpec serialises one space.Param.
type ParamSpec struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"` // "int" or "enum"
	Min    int64    `json:"min,omitempty"`
	Max    int64    `json:"max,omitempty"`
	Step   int64    `json:"step,omitempty"`
	Values []string `json:"values,omitempty"`
}

// Message is the single envelope for every protocol message; unused
// fields are omitted on the wire.
type Message struct {
	Type    string `json:"type"`
	Session string `json:"session,omitempty"`

	// Seq is a client-chosen correlation id echoed verbatim on the
	// reply. The pipelined binary protocol requires it (replies of a
	// frame may interleave with other in-flight frames on the same
	// connection); the one-at-a-time JSON line protocol ignores it.
	Seq uint64 `json:"seq,omitempty"`

	// register
	App      string      `json:"app,omitempty"`
	Machine  string      `json:"machine,omitempty"`
	Strategy string      `json:"strategy,omitempty"`
	Space    []ParamSpec `json:"space,omitempty"`
	Seed     int64       `json:"seed,omitempty"`
	MaxRuns  int         `json:"max_runs,omitempty"`
	// Reporters is the number of clients that will report for each
	// fetched configuration; the server aggregates (worst value wins,
	// since the slowest rank gates a parallel application) before
	// advancing the search. Defaults to 1.
	Reporters int `json:"reporters,omitempty"`
	// CacheNS namespaces the session's view of the server's
	// persistent evaluation cache. Sessions with different namespaces
	// never see each other's measurements even when app, machine, and
	// space coincide — the isolation a multi-tenant server needs when
	// two tenants run the same benchmark with different build flags
	// the space does not capture. Empty selects the shared namespace.
	CacheNS string `json:"cache_ns,omitempty"`
	// Parallel asks the server to fan independent proposals of one
	// search round out to concurrent clients (the PRO use case):
	// each fetch may receive a different configuration, identified by
	// Tag, and the search advances when the whole round is reported.
	// Without it every client of a session sees the same
	// configuration.
	Parallel bool `json:"parallel,omitempty"`
	// Async asks the server to drive the session through its
	// pipelined issue/commit dispatcher instead of round barriers:
	// concurrent fetches receive distinct candidates from a bounded
	// in-flight window and the search strategy observes results in
	// deterministic issue order, so a slow reporter delays only the
	// commits behind it, not a whole round.
	Async bool `json:"async,omitempty"`
	// AsyncDepth bounds the in-flight candidate window of an async
	// session; 0 selects the server's default depth.
	AsyncDepth int `json:"async_depth,omitempty"`

	// config / report: Tag identifies which hand-out of a session a
	// configuration or report belongs to. The server assigns a fresh
	// one on every fetch; clients echo it on report, and a report whose
	// tag was answered, expired or retired is acknowledged and dropped.
	Tag int `json:"tag,omitempty"`

	// Gen was the configuration generation of a shared-configuration
	// session while those had a dispatch of their own. The server
	// neither stamps nor reads it and the client no longer echoes it;
	// the field and its codec cases stay only because the frozen
	// bench/adapters.go names it, and ROADMAP item 1's benchmark PR
	// removes it.
	Gen int `json:"gen,omitempty"`

	// config / best_reply
	Values    map[string]string `json:"values,omitempty"`
	Converged bool              `json:"converged,omitempty"`
	// Next, on a report, asks the server to answer with the session's
	// next configuration where that answer cannot depend on when the
	// fetch would have come: the report completed the one candidate of
	// a shared-configuration session. The reply is then the config a
	// fetch would get, and the client needs no fetch of its own;
	// otherwise it is the plain ok. It sits beside Converged so the two
	// bools share a word of Message.
	Next bool `json:"next,omitempty"`

	// report / best_reply
	Perf float64 `json:"perf,omitempty"`
	// PerfText carries Perf when it is not a finite number. A JSON
	// number cannot spell ±Inf or NaN, yet the protocol meaningfully
	// transports them: a client rejects an infeasible configuration by
	// reporting +Inf (see DecodeSpace), and a forfeited proposal's
	// penalty is +Inf. Send writes a non-finite Perf as this member
	// ("+Inf", "-Inf", "NaN") in place of perf, and Recv moves it back,
	// so both directions of the JSON line protocol round-trip every
	// float64. The binary protocol encodes raw IEEE-754 bits and never
	// uses this field.
	PerfText string `json:"perf_text,omitempty"`

	// error
	Error string `json:"error,omitempty"`
}

// field returns Message's i-th member in struct field order: its JSON
// key, its binary field tag and a pointer to it, or a nil pointer past
// the last. It is the wire schema of both codecs. Every member but type
// is omitempty. Tag 0 marks the two members no tag carries: type, which
// a binary message opens with as its type code, and perf_text, which
// the binary codec has no use for (Perf travels as raw bits).
// Tags 18 and 19 are retired with the members they carried (surrogate,
// surrogate_keep): no member may take them again, so an older peer's
// frame that carries one fails as an unknown field tag, and its JSON
// keys are ignored like any unknown key. TestFieldTable holds the list
// to the struct and its json tags, and the tags to distinct numbers
// below len(fieldOfTag) and off the retired ones.
func (m *Message) field(i int) (key string, tag byte, p any) {
	switch i {
	case 0:
		return "type", 0, &m.Type
	case 1:
		return "session", 1, &m.Session
	case 2:
		return "seq", 16, &m.Seq
	case 3:
		return "app", 2, &m.App
	case 4:
		return "machine", 3, &m.Machine
	case 5:
		return "strategy", 4, &m.Strategy
	case 6:
		return "space", 5, &m.Space
	case 7:
		return "seed", 6, &m.Seed
	case 8:
		return "max_runs", 7, &m.MaxRuns
	case 9:
		return "reporters", 8, &m.Reporters
	case 10:
		return "cache_ns", 17, &m.CacheNS
	case 11:
		return "parallel", 9, &m.Parallel
	case 12:
		return "async", 20, &m.Async
	case 13:
		return "async_depth", 21, &m.AsyncDepth
	case 14:
		return "tag", 10, &m.Tag
	case 15:
		return "gen", 11, &m.Gen
	case 16:
		return "values", 12, &m.Values
	case 17:
		return "converged", 13, &m.Converged
	case 18:
		return "next", 22, &m.Next
	case 19:
		return "perf", 14, &m.Perf
	case 20:
		return "perf_text", 0, &m.PerfText
	case 21:
		return "error", 15, &m.Error
	}
	return "", 0, nil
}

// EncodeSpace serialises a space for a register message.
func EncodeSpace(sp *space.Space) []ParamSpec {
	params := sp.Params()
	out := make([]ParamSpec, len(params))
	for i, p := range params {
		spec := ParamSpec{Name: p.Name, Kind: p.Kind.String()}
		switch p.Kind {
		case space.Int:
			spec.Min, spec.Max, spec.Step = p.Min, p.Max, p.Step
		case space.Enum:
			spec.Values = append([]string(nil), p.Values...)
		}
		out[i] = spec
	}
	return out
}

// DecodeSpace reconstructs a space from a register message, refusing
// a spec space.New refuses (an int span of math.MaxInt64 or more
// among them). The server searches the whole box; a client rejects a
// configuration it cannot run by reporting +Inf.
func DecodeSpace(specs []ParamSpec) (*space.Space, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("proto: empty space")
	}
	params := make([]space.Param, len(specs))
	for i, s := range specs {
		switch s.Kind {
		case "int":
			if s.Step <= 0 || s.Max < s.Min {
				return nil, fmt.Errorf("proto: bad int parameter %q (min=%d max=%d step=%d)", s.Name, s.Min, s.Max, s.Step)
			}
			params[i] = space.Param{Name: s.Name, Kind: space.Int, Min: s.Min, Max: s.Max, Step: s.Step}
		case "enum":
			if len(s.Values) == 0 {
				return nil, fmt.Errorf("proto: enum parameter %q has no values", s.Name)
			}
			params[i] = space.Param{Name: s.Name, Kind: space.Enum, Values: append([]string(nil), s.Values...)}
		default:
			return nil, fmt.Errorf("proto: unknown parameter kind %q", s.Kind)
		}
	}
	return space.New(params...)
}

// Conn wraps a stream with message framing. It is not safe for
// concurrent writers; the client serialises calls and the server uses
// one Conn per goroutine.
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
	c io.ReadWriteCloser

	out []byte // Send encodes each message here, then copies it to w

	// spares[:nspares] are Values maps RecvInto took from messages that
	// arrived without values, kept for the next messages that have some:
	// the sessions sharing a Conn hand theirs back in turn.
	spares  [8]map[string]string
	nspares int
	strs    strTable // the values keys and values RecvInto copied out last
}

// NewConn frames messages over rw.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return NewConnReader(rw, bufio.NewReader(rw))
}

// NewConnReader frames messages over rw, reading through an existing
// buffered reader. The server uses it after peeking at the first byte
// of a connection to decide between the JSON line protocol and the
// binary frame protocol: bytes already buffered in r must not be
// lost.
func NewConnReader(rw io.ReadWriteCloser, r *bufio.Reader) *Conn {
	return &Conn{r: r, w: bufio.NewWriter(rw), c: rw}
}

// deadliner is the subset of net.Conn needed for I/O deadlines.
type deadliner interface {
	SetDeadline(t time.Time) error
}

// SetDeadline sets the read/write deadline of the underlying
// transport when it supports deadlines (net.Conn and net.Pipe do) and
// is a no-op otherwise, so callers can apply timeouts uniformly.
func (c *Conn) SetDeadline(t time.Time) error {
	if d, ok := c.c.(deadliner); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// Send writes one message as its canonical line (json.go). A
// non-finite Perf goes out as PerfText (see that field), the caller's
// message untouched. Every Message has a canonical line, so only the
// transport can fail.
func (c *Conn) Send(m *Message) error {
	out := appendJSON(c.out[:0], m)
	c.out = out[:0]
	if _, err := c.w.Write(out); err != nil {
		return fmt.Errorf("proto: write: %w", err)
	}
	return c.w.Flush()
}

func isNonFinite(v float64) bool {
	return math.IsInf(v, 0) || math.IsNaN(v)
}

func formatNonFinite(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return "NaN"
	}
}

// parseNonFinite inverts formatNonFinite; any other text is a
// protocol violation.
func parseNonFinite(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return 0, fmt.Errorf("proto: bad perf_text %q", s)
}

// Recv reads one message into a new Message. It returns io.EOF when
// the peer closed the connection cleanly.
func (c *Conn) Recv() (*Message, error) {
	m := new(Message)
	if err := c.RecvInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// RecvInto reads one message into m, overwriting every field. A
// canonical line decodes where it lies (json.go), any other through
// encoding/json. Values are decoded into m's map, or into one the Conn
// kept from messages that had none, so the caller must not keep
// m.Values across calls. An empty values object decodes as absent,
// which is how Send encodes it.
// A line longer than MaxFrame is an error, as a binary frame would be:
// a peer that never sends '\n' cannot grow the reader's memory without
// bound. It returns io.EOF when the peer closed the connection
// cleanly; after any other error m's contents are unspecified.
func (c *Conn) RecvInto(m *Message) error {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= MaxFrame {
			line, err = c.r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if len(line) > MaxFrame {
		return fmt.Errorf("proto: line longer than MaxFrame (%d bytes)", MaxFrame)
	}
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return io.EOF
		}
		return fmt.Errorf("proto: read: %w", err)
	}
	vals := m.Values
	if vals == nil && c.nspares > 0 {
		c.nspares--
		vals, c.spares[c.nspares] = c.spares[c.nspares], nil
	}
	clear(vals)
	m.Values = vals
	if !c.decodeJSON(line, m) {
		clear(vals)
		*m = Message{Values: vals}
		if err := json.Unmarshal(line, m); err != nil {
			return fmt.Errorf("proto: malformed message: %w", err)
		}
	}
	if len(m.Values) == 0 {
		if m.Values != nil && c.nspares < len(c.spares) {
			c.spares[c.nspares] = m.Values
			c.nspares++
		}
		m.Values = nil
	}
	if m.Type == "" {
		return fmt.Errorf("proto: message missing type")
	}
	if m.PerfText != "" {
		v, err := parseNonFinite(m.PerfText)
		if err != nil {
			return err
		}
		m.Perf, m.PerfText = v, ""
	}
	return nil
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.c.Close() }
