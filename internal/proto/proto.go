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
//	C: {"type":"register","app":"gs2","space":[...],"strategy":"simplex"}
//	S: {"type":"registered","session":"s1"}
//	C: {"type":"fetch","session":"s1"}
//	S: {"type":"config","values":{"layout":"yxles"},"converged":false}
//	C: {"type":"report","session":"s1","perf":16.25}
//	S: {"type":"ok"}
package proto

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"harmony/internal/space"
)

// ErrMarshal wraps message-encoding failures in Send. A marshal error
// is a programming fault in the caller's message, not a transport
// fault: reconnect-and-retry loops must give up immediately on it
// (errors.Is(err, ErrMarshal)) instead of burning their retry budget
// re-encoding the same broken message.
var ErrMarshal = errors.New("message encoding failed")

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
	//harmonyvet:ignore protowire Type needs no wire tag: binary frames carry it as the leading type-code byte (typeCodes), so a tag would duplicate it
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
	// Surrogate asks the server to screen proposals with its analytic
	// performance model for this application, when it has one:
	// configurations the model ranks confidently worse are answered to
	// the search at their predicted value without ever being handed to
	// a client, so the session spends its runs on promising
	// candidates. Reported results (best queries) always come from
	// genuine measurements. Servers without a model for the
	// application ignore the flag.
	Surrogate bool `json:"surrogate,omitempty"`
	// SurrogateKeep is the fraction of each proposal round to actually
	// evaluate when Surrogate is set, 0 < keep <= 1; 0 selects the
	// server's default.
	SurrogateKeep float64 `json:"surrogate_keep,omitempty"`
	// Async asks the server to drive the session through its
	// pipelined issue/commit dispatcher instead of round barriers:
	// concurrent fetches receive distinct candidates from a bounded
	// in-flight window and the search strategy observes results in
	// deterministic issue order, so a slow reporter delays only the
	// commits behind it, not a whole round. Implies per-candidate
	// surrogate screening when Surrogate is also set.
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

	// report / best_reply
	Perf float64 `json:"perf,omitempty"`
	// PerfText carries Perf when it is not a finite number.
	// encoding/json refuses to marshal ±Inf and NaN, yet the protocol
	// meaningfully transports them: a client rejects an infeasible
	// configuration by reporting +Inf (see DecodeSpace), and a
	// forfeited proposal's penalty is +Inf. Send moves a non-finite
	// Perf into this field ("+Inf", "-Inf", "NaN") and Recv moves it
	// back, so both directions of the JSON line protocol round-trip
	// every float64. The binary protocol encodes raw IEEE-754 bits and
	// never uses this field.
	//harmonyvet:ignore protowire PerfText is a JSON-only escape hatch for non-finite Perf; the binary protocol sends raw IEEE-754 bits and must never grow a second perf field
	PerfText string `json:"perf_text,omitempty"`

	// error
	Error string `json:"error,omitempty"`
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

// DecodeSpace reconstructs a space from a register message. Note that
// feasibility constraints are not transmitted: the server searches
// the bounding box and the client remains free to reject infeasible
// configurations by reporting +Inf.
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

// Send writes one message. A non-finite Perf is transposed into
// PerfText first (see that field); an encoding failure wraps
// ErrMarshal so callers can distinguish it from transport faults.
func (c *Conn) Send(m *Message) error {
	if isNonFinite(m.Perf) {
		// Marshal a shallow copy: the caller's message is not mutated.
		cp := *m
		cp.PerfText = formatNonFinite(cp.Perf)
		cp.Perf = 0
		m = &cp
	}
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("proto: marshal: %w (%v)", ErrMarshal, err)
	}
	if _, err := c.w.Write(append(data, '\n')); err != nil {
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

// Recv reads one message. It returns io.EOF when the peer closed the
// connection cleanly.
func (c *Conn) Recv() (*Message, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("proto: read: %w", err)
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("proto: malformed message: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("proto: message missing type")
	}
	if m.PerfText != "" {
		v, err := parseNonFinite(m.PerfText)
		if err != nil {
			return nil, err
		}
		m.Perf, m.PerfText = v, ""
	}
	return &m, nil
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.c.Close() }
