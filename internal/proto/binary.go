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
	"slices"
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

// ReadFrame reads and decodes one frame into a new Frame. io.EOF at a
// frame boundary is a clean close and returned verbatim.
func ReadFrame(r *bufio.Reader) (*Frame, error) {
	f := new(Frame)
	if err := ReadFrameInto(r, f); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadFrameInto reads one frame and decodes it into f, reusing f's
// messages and their Values maps: a long-lived reader decodes every
// frame of a connection into the same storage. Nothing of the previous
// frame survives into the new one. A payload that fits r's buffer is
// decoded where it lies, without a copy; decoded strings are copied
// out, so f never aliases r. io.EOF at a frame boundary is a clean
// close and returned verbatim; after any error f's contents are
// unspecified.
func ReadFrameInto(r *bufio.Reader, f *Frame) error {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return io.EOF
		}
		return fmt.Errorf("proto: frame header: %w", unexpectedEOF(err))
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return fmt.Errorf("proto: frame payload %d exceeds MaxFrame", n)
	}
	if _, err := r.Discard(4); err != nil {
		return fmt.Errorf("proto: frame header: %w", err)
	}
	if int(n) > r.Size() {
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("proto: frame payload: %w", err)
		}
		return decodeFrame(payload, f)
	}
	payload, err := r.Peek(int(n))
	if err != nil {
		return fmt.Errorf("proto: frame payload: %w", unexpectedEOF(err))
	}
	err = decodeFrame(payload, f)
	_, _ = r.Discard(int(n)) // cannot fail: Peek buffered n bytes
	return err
}

// decodeFrame decodes a frame payload into f, reusing its messages.
func decodeFrame(payload []byte, f *Frame) error {
	d := &decoder{buf: payload}
	f.ID = d.uvarint()
	count := d.uvarint()
	if count > uint64(len(payload)) { // each message costs at least one byte
		return fmt.Errorf("proto: frame claims %d messages in %d bytes", count, len(payload))
	}
	f.Msgs = slices.Grow(f.Msgs[:0], int(count))[:count]
	for i, m := range f.Msgs {
		if m == nil {
			m = new(Message)
			f.Msgs[i] = m
		}
		decodeMessage(d, m)
		if d.err != nil {
			return fmt.Errorf("proto: frame message %d: %w", i, d.err)
		}
	}
	if len(d.buf) != d.off {
		return fmt.Errorf("proto: %d trailing bytes in frame", len(d.buf)-d.off)
	}
	return nil
}

// FrameBuffered reports whether r's buffer already holds a whole frame,
// so that reading it cannot block. A pipelining writer flushes its
// replies when it is false: the peer may be waiting on them before it
// sends the rest.
func FrameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4) // cannot fail: four bytes are buffered
	return uint64(r.Buffered()-4) >= uint64(binary.BigEndian.Uint32(hdr))
}

// unexpectedEOF is what io.ReadFull would have said: a stream that
// ends inside a frame is truncated, not cleanly closed.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
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
		// Go's randomised map iteration (determinism invariant). The
		// keys of a configuration fit the stack array.
		var stack [16]string
		keys := stack[:0]
		for k := range m.Values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
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

// string decodes a string, copied out of the frame. It returns prev
// itself when the bytes equal it, so a reused message that decodes the
// same session id again allocates nothing.
func (d *decoder) string(prev string) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string length %d overruns frame", n)
		return ""
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if string(b) == prev {
		return prev
	}
	return string(b)
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

// decodeMessage decodes one tagged message into m, overwriting every
// field; errors land in d.err. m's Values map, emptied, holds the
// message's values if it has any, and a string equal to the one it
// replaces is kept rather than copied again.
func decodeMessage(d *decoder, m *Message) {
	prev := *m
	*m = Message{}
	code := d.byte()
	if code == 0 {
		m.Type = d.string(prev.Type)
	} else if name, ok := typeNames[code]; ok {
		m.Type = name
	} else {
		d.fail("unknown message type code %d", code)
		return
	}
	if m.Type == "" && d.err == nil {
		d.fail("message missing type")
		return
	}
	for d.err == nil {
		tag := d.byte()
		if tag == 0 || d.err != nil {
			break
		}
		switch tag {
		case tagSession:
			m.Session = d.string(prev.Session)
		case tagApp:
			m.App = d.string(prev.App)
		case tagMachine:
			m.Machine = d.string(prev.Machine)
		case tagStrategy:
			m.Strategy = d.string(prev.Strategy)
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
				p.Name = d.string("")
				p.Kind = d.string("")
				p.Min = d.varint()
				p.Max = d.varint()
				p.Step = d.varint()
				nv := d.uvarint()
				if nv > uint64(len(d.buf)) {
					d.fail("enum claims %d values in %d bytes", nv, len(d.buf))
					break
				}
				for j := uint64(0); j < nv && d.err == nil; j++ {
					p.Values = append(p.Values, d.string(""))
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
			if n > 0 && prev.Values != nil {
				clear(prev.Values)
				m.Values, prev.Values = prev.Values, nil
			} else if n > 0 {
				m.Values = make(map[string]string, n)
			}
			for i := uint64(0); i < n && d.err == nil; i++ {
				k := d.string("")
				m.Values[k] = d.string("")
			}
		case tagConverged:
			m.Converged = d.byte() != 0
		case tagNext:
			m.Next = d.byte() != 0
		case tagPerf:
			m.Perf = d.float64()
		case tagError:
			m.Error = d.string(prev.Error)
		case tagSeq:
			m.Seq = d.uvarint()
		case tagCacheNS:
			m.CacheNS = d.string(prev.CacheNS)
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
}
