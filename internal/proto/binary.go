// Binary frame protocol (version 2 of the wire format).
//
// The JSON line protocol is one message per round trip: fine for a
// single chatty client, ruinous for a server multiplexing thousands
// of tuning sessions. The binary protocol batches many messages into
// one length-prefixed frame and allows frames to be pipelined — a
// client may have any number of frames in flight and correlates
// replies through Message.Seq, which the server echoes verbatim.
//
// A connection opts in with a 5-byte handshake: the client sends
// BinMagic ("HRMB") followed by a version byte, and the server
// answers with the same 5 bytes to accept. JSON clients open with
// '{', so a server can sniff the first byte and serve both protocols
// on one port.
//
// Frame layout (all integers except the length are unsigned varints,
// strings are length-prefixed byte sequences):
//
//	uint32 payload length (big endian, at most MaxFrame)
//	payload:
//	  uvarint frame id
//	  uvarint message count
//	  message count × encoded Message
//
// A message is a type code (see typeCodes) followed by (tag, value)
// pairs terminated by tag 0. Only non-zero fields are written. Perf
// travels as raw IEEE-754 bits, so ±Inf and NaN round-trip without
// the PerfText detour the JSON protocol needs.
package proto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// BinMagic opens the binary-protocol handshake in both directions.
// Its first byte must never collide with '{', the first byte of every
// JSON line message.
const BinMagic = "HRMB"

// BinVersion is the only frame-format version this codec speaks.
const BinVersion = 1

// MaxFrame bounds a frame payload; a peer announcing more is treated
// as malformed rather than driving an unbounded allocation.
const MaxFrame = 8 << 20

// Frame is one batch of messages plus its pipelining id.
type Frame struct {
	ID   uint64
	Msgs []*Message
}

// typeCodes maps message types onto compact wire codes. Code 0 is
// reserved: it prefixes a literal type string, keeping the codec open
// to message types this table predates.
var typeCodes = map[string]byte{
	TypeRegister:   1,
	TypeRegistered: 2,
	TypeFetch:      3,
	TypeConfig:     4,
	TypeReport:     5,
	TypeBest:       6,
	TypeBestReply:  7,
	TypeDone:       8,
	TypeOK:         9,
	TypeError:      10,
}

var typeNames = func() map[byte]string {
	m := make(map[byte]string, len(typeCodes))
	for name, code := range typeCodes {
		m[code] = name
	}
	return m
}()

// Field tags of the binary message encoding. Tag 0 terminates.
const (
	tagSession   = 1
	tagApp       = 2
	tagMachine   = 3
	tagStrategy  = 4
	tagSpace     = 5
	tagSeed      = 6
	tagMaxRuns   = 7
	tagReporters = 8
	tagParallel  = 9
	tagTag       = 10
	tagGen       = 11
	tagValues    = 12
	tagConverged = 13
	tagPerf      = 14
	tagError     = 15
	tagSeq       = 16
	tagCacheNS   = 17

	tagSurrogate     = 18
	tagSurrogateKeep = 19
	tagAsync         = 20
	tagAsyncDepth    = 21
	tagNext          = 22
)

// WriteHandshake sends the magic plus version; used by the client to
// open and by the server to accept.
func WriteHandshake(w io.Writer) error {
	var buf [len(BinMagic) + 1]byte
	copy(buf[:], BinMagic)
	buf[len(BinMagic)] = BinVersion
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("proto: handshake write: %w", err)
	}
	return nil
}

// ReadHandshake consumes and validates the peer's magic + version.
func ReadHandshake(r io.Reader) error {
	var buf [len(BinMagic) + 1]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("proto: handshake read: %w", err)
	}
	if string(buf[:len(BinMagic)]) != BinMagic {
		return fmt.Errorf("proto: bad handshake magic %q", buf[:len(BinMagic)])
	}
	if buf[len(BinMagic)] != BinVersion {
		return fmt.Errorf("proto: unsupported binary protocol version %d", buf[len(BinMagic)])
	}
	return nil
}

// AppendFrame encodes f onto buf (which may be nil or recycled) and
// returns the extended slice, ready for a single Write.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length backpatched below
	buf = binary.AppendUvarint(buf, f.ID)
	buf = binary.AppendUvarint(buf, uint64(len(f.Msgs)))
	for _, m := range f.Msgs {
		var err error
		buf, err = appendMessage(buf, m)
		if err != nil {
			return nil, err
		}
	}
	payload := len(buf) - start - 4
	if payload > MaxFrame {
		return nil, fmt.Errorf("proto: frame payload %d exceeds MaxFrame", payload)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(payload))
	return buf, nil
}

// WriteFrame encodes f and writes it to w in one call.
func WriteFrame(w *bufio.Writer, f *Frame) error {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("proto: frame write: %w", err)
	}
	return nil
}

// ReadFrame reads and decodes one frame. io.EOF at a frame boundary
// is a clean close and returned verbatim.
func ReadFrame(r *bufio.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("proto: frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("proto: frame payload %d exceeds MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("proto: frame payload: %w", err)
	}
	d := &decoder{buf: payload}
	f := &Frame{ID: d.uvarint()}
	count := d.uvarint()
	if count > uint64(n) { // each message costs at least one byte
		return nil, fmt.Errorf("proto: frame claims %d messages in %d bytes", count, n)
	}
	f.Msgs = make([]*Message, 0, count)
	for i := uint64(0); i < count; i++ {
		m := decodeMessage(d)
		if d.err != nil {
			return nil, fmt.Errorf("proto: frame message %d: %w", i, d.err)
		}
		f.Msgs = append(f.Msgs, m)
	}
	if len(d.buf) != d.off {
		return nil, fmt.Errorf("proto: %d trailing bytes in frame", len(d.buf)-d.off)
	}
	return f, nil
}

// appendMessage encodes m in tagged binary form.
func appendMessage(buf []byte, m *Message) ([]byte, error) {
	if code, ok := typeCodes[m.Type]; ok {
		buf = append(buf, code)
	} else {
		buf = append(buf, 0)
		buf = appendString(buf, m.Type)
	}
	if m.Session != "" {
		buf = appendString(append(buf, tagSession), m.Session)
	}
	if m.App != "" {
		buf = appendString(append(buf, tagApp), m.App)
	}
	if m.Machine != "" {
		buf = appendString(append(buf, tagMachine), m.Machine)
	}
	if m.Strategy != "" {
		buf = appendString(append(buf, tagStrategy), m.Strategy)
	}
	if len(m.Space) > 0 {
		buf = append(buf, tagSpace)
		buf = binary.AppendUvarint(buf, uint64(len(m.Space)))
		for _, p := range m.Space {
			buf = appendString(buf, p.Name)
			buf = appendString(buf, p.Kind)
			buf = binary.AppendVarint(buf, p.Min)
			buf = binary.AppendVarint(buf, p.Max)
			buf = binary.AppendVarint(buf, p.Step)
			buf = binary.AppendUvarint(buf, uint64(len(p.Values)))
			for _, v := range p.Values {
				buf = appendString(buf, v)
			}
		}
	}
	if m.Seed != 0 {
		buf = binary.AppendVarint(append(buf, tagSeed), m.Seed)
	}
	if m.MaxRuns != 0 {
		buf = binary.AppendVarint(append(buf, tagMaxRuns), int64(m.MaxRuns))
	}
	if m.Reporters != 0 {
		buf = binary.AppendVarint(append(buf, tagReporters), int64(m.Reporters))
	}
	if m.Parallel {
		buf = append(buf, tagParallel, 1)
	}
	if m.Tag != 0 {
		buf = binary.AppendVarint(append(buf, tagTag), int64(m.Tag))
	}
	if m.Gen != 0 {
		buf = binary.AppendVarint(append(buf, tagGen), int64(m.Gen))
	}
	if len(m.Values) > 0 {
		buf = append(buf, tagValues)
		buf = binary.AppendUvarint(buf, uint64(len(m.Values)))
		// Encode in sorted key order: wire bytes must not depend on
		// Go's randomised map iteration (determinism invariant).
		keys := make([]string, 0, len(m.Values))
		for k := range m.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = appendString(buf, k)
			buf = appendString(buf, m.Values[k])
		}
	}
	if m.Converged {
		buf = append(buf, tagConverged, 1)
	}
	if m.Next {
		buf = append(buf, tagNext, 1)
	}
	if m.Perf != 0 || math.Signbit(m.Perf) || math.IsNaN(m.Perf) {
		buf = append(buf, tagPerf)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Perf))
	}
	if m.Error != "" {
		buf = appendString(append(buf, tagError), m.Error)
	}
	if m.Seq != 0 {
		buf = binary.AppendUvarint(append(buf, tagSeq), m.Seq)
	}
	if m.CacheNS != "" {
		buf = appendString(append(buf, tagCacheNS), m.CacheNS)
	}
	if m.Surrogate {
		buf = append(buf, tagSurrogate, 1)
	}
	if m.SurrogateKeep != 0 {
		buf = append(buf, tagSurrogateKeep)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.SurrogateKeep))
	}
	if m.Async {
		buf = append(buf, tagAsync, 1)
	}
	if m.AsyncDepth != 0 {
		buf = binary.AppendVarint(append(buf, tagAsyncDepth), int64(m.AsyncDepth))
	}
	return append(buf, 0), nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder walks a frame payload, latching the first error so call
// sites can stay unconditional.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string length %d overruns frame", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.off < 8 {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// decodeMessage decodes one tagged message; errors land in d.err.
func decodeMessage(d *decoder) *Message {
	m := &Message{}
	code := d.byte()
	if code == 0 {
		m.Type = d.string()
	} else if name, ok := typeNames[code]; ok {
		m.Type = name
	} else {
		d.fail("unknown message type code %d", code)
		return m
	}
	if m.Type == "" && d.err == nil {
		d.fail("message missing type")
		return m
	}
	for d.err == nil {
		tag := d.byte()
		if tag == 0 || d.err != nil {
			break
		}
		switch tag {
		case tagSession:
			m.Session = d.string()
		case tagApp:
			m.App = d.string()
		case tagMachine:
			m.Machine = d.string()
		case tagStrategy:
			m.Strategy = d.string()
		case tagSpace:
			n := d.uvarint()
			if n > uint64(len(d.buf)) {
				d.fail("space claims %d params in %d bytes", n, len(d.buf))
				break
			}
			// An empty list decodes as absent, which is how it is encoded.
			m.Space = nil
			if n > 0 {
				m.Space = make([]ParamSpec, 0, n)
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				var p ParamSpec
				p.Name = d.string()
				p.Kind = d.string()
				p.Min = d.varint()
				p.Max = d.varint()
				p.Step = d.varint()
				nv := d.uvarint()
				if nv > uint64(len(d.buf)) {
					d.fail("enum claims %d values in %d bytes", nv, len(d.buf))
					break
				}
				for j := uint64(0); j < nv && d.err == nil; j++ {
					p.Values = append(p.Values, d.string())
				}
				m.Space = append(m.Space, p)
			}
		case tagSeed:
			m.Seed = d.varint()
		case tagMaxRuns:
			m.MaxRuns = int(d.varint())
		case tagReporters:
			m.Reporters = int(d.varint())
		case tagParallel:
			m.Parallel = d.byte() != 0
		case tagTag:
			m.Tag = int(d.varint())
		case tagGen:
			m.Gen = int(d.varint())
		case tagValues:
			n := d.uvarint()
			if n > uint64(len(d.buf)) {
				d.fail("values claim %d entries in %d bytes", n, len(d.buf))
				break
			}
			m.Values = nil
			if n > 0 {
				m.Values = make(map[string]string, n)
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				k := d.string()
				m.Values[k] = d.string()
			}
		case tagConverged:
			m.Converged = d.byte() != 0
		case tagNext:
			m.Next = d.byte() != 0
		case tagPerf:
			m.Perf = d.float64()
		case tagError:
			m.Error = d.string()
		case tagSeq:
			m.Seq = d.uvarint()
		case tagCacheNS:
			m.CacheNS = d.string()
		case tagSurrogate:
			m.Surrogate = d.byte() != 0
		case tagSurrogateKeep:
			m.SurrogateKeep = d.float64()
		case tagAsync:
			m.Async = d.byte() != 0
		case tagAsyncDepth:
			m.AsyncDepth = int(d.varint())
		default:
			d.fail("unknown field tag %d", tag)
		}
	}
	return m
}
