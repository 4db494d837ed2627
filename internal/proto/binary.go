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
//	uint32 payload length (big endian, at most maxFrame)
//	payload:
//	  uvarint frame id
//	  uvarint message count
//	  message count × encoded Message
//
// A message is a type code (see typeNames) followed by (tag, value)
// pairs terminated by tag 0: each non-zero field under the tag
// Message.field gives it, in struct order, though a decoder takes them
// in any order. A value is a string, a signed varint (Seq: a uvarint),
// one byte for a bool, the raw IEEE-754 bits of a float — so ±Inf, NaN
// and -0 round-trip without the PerfText detour the JSON protocol
// needs — or a uvarint count and the elements of space, an enum's
// values or values.
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

// binVersion is the only frame-format version this codec speaks.
const binVersion = 1

// maxFrame bounds a frame payload; a peer announcing more is treated
// as malformed rather than driving an unbounded allocation.
const maxFrame = 8 << 20

// Frame is one batch of messages plus its pipelining id.
type Frame struct {
	ID   uint64
	Msgs []*Message

	strs strTable // the values keys and values decoded into it last
}

// typeNames maps a wire type code to its message type. Code 0 is
// reserved: it prefixes a literal type string, keeping the codec open
// to message types this table predates.
var typeNames = [...]string{1: TypeRegister, TypeRegistered, TypeFetch, TypeConfig,
	TypeReport, TypeBest, TypeBestReply, TypeDone, TypeOK, TypeError}

// typeCode returns t's wire type code, or 0 if it has none.
func typeCode(t string) byte {
	for code := 1; code < len(typeNames); code++ {
		if typeNames[code] == t {
			return byte(code)
		}
	}
	return 0
}

// fieldOfTag maps a binary field tag to 1 + its index in Message.field;
// 0 marks a tag no field has. A tag beyond it would stay unknown to the
// decoder, so TestFieldTable bounds the tags.
var fieldOfTag = func() (idx [32]byte) {
	var m Message
	for i := 0; ; i++ {
		_, tag, p := m.field(i)
		if p == nil {
			return idx
		}
		if tag != 0 && int(tag) < len(idx) {
			idx[tag] = byte(i + 1)
		}
	}
}()

// WriteHandshake sends the magic plus version; used by the client to
// open and by the server to accept.
func WriteHandshake(w io.Writer) error {
	var buf [len(BinMagic) + 1]byte
	copy(buf[:], BinMagic)
	buf[len(BinMagic)] = binVersion
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
	if buf[len(BinMagic)] != binVersion {
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
		buf = appendMessage(buf, m)
	}
	payload := len(buf) - start - 4
	if payload > maxFrame {
		return nil, fmt.Errorf("proto: frame payload %d exceeds the %d-byte frame limit", payload, maxFrame)
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
	if n > maxFrame {
		return fmt.Errorf("proto: frame payload %d exceeds the %d-byte frame limit", n, maxFrame)
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
	d := &decoder{buf: payload, strs: &f.strs}
	f.ID = d.uvarint()
	count := d.count(2) // a type code and the terminating tag
	if d.err != nil {
		return fmt.Errorf("proto: frame: %w", d.err)
	}
	f.Msgs = slices.Grow(f.Msgs[:0], count)[:count]
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
func appendMessage(buf []byte, m *Message) []byte {
	if code := typeCode(m.Type); code != 0 {
		buf = append(buf, code)
	} else {
		buf = appendString(append(buf, 0), m.Type)
	}
	for i := 0; ; i++ {
		_, tag, p := m.field(i)
		if p == nil {
			return append(buf, 0)
		}
		if tag == 0 {
			continue
		}
		switch p := p.(type) {
		case *string:
			if *p != "" {
				buf = appendString(append(buf, tag), *p)
			}
		case *int:
			if *p != 0 {
				buf = binary.AppendVarint(append(buf, tag), int64(*p))
			}
		case *int64:
			if *p != 0 {
				buf = binary.AppendVarint(append(buf, tag), *p)
			}
		case *uint64:
			if *p != 0 {
				buf = binary.AppendUvarint(append(buf, tag), *p)
			}
		case *bool:
			if *p {
				buf = append(buf, tag, 1)
			}
		case *float64:
			if bits := math.Float64bits(*p); bits != 0 {
				buf = binary.BigEndian.AppendUint64(append(buf, tag), bits)
			}
		case *[]ParamSpec:
			if len(*p) > 0 {
				buf = appendSpace(append(buf, tag), *p)
			}
		case *map[string]string:
			if len(*p) > 0 {
				buf = binary.AppendUvarint(append(buf, tag), uint64(len(*p)))
				// The keys of a configuration fit the stack array.
				var stack [16]string
				for _, k := range sortedKeys(stack[:0], *p) {
					buf = appendString(appendString(buf, k), (*p)[k])
				}
			}
		}
	}
}

func appendSpace(buf []byte, specs []ParamSpec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(specs)))
	for _, p := range specs {
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
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder walks a frame payload, latching the first error so call
// sites can stay unconditional.
type decoder struct {
	buf  []byte
	off  int
	err  error
	strs *strTable // the Frame's: it outlives the payload
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

// count decodes the number of elements that follow, each at least
// size bytes long, and fails if the bytes left cannot hold them: a
// peer's claim never sizes memory its frame does not back.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if left := uint64(len(d.buf)-d.off) / uint64(size); n > left {
		d.fail("%d elements of at least %d bytes claimed in %d bytes", n, size, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

// bytes decodes a string's bytes, not copied out of the frame.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string length %d overruns frame", n)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// string decodes a string, copied out of the frame unless it equals
// prev (see reuse).
func (d *decoder) string(prev string) string { return reuse(prev, d.bytes()) }

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
	} else if int(code) < len(typeNames) {
		m.Type = typeNames[code]
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
		if int(tag) >= len(fieldOfTag) || fieldOfTag[tag] == 0 {
			d.fail("unknown field tag %d", tag)
			break
		}
		i := int(fieldOfTag[tag]) - 1
		_, _, p := m.field(i)
		switch p := p.(type) {
		case *string:
			_, _, old := prev.field(i)
			*p = d.string(*old.(*string))
		case *int:
			*p = int(d.varint())
		case *int64:
			*p = d.varint()
		case *uint64:
			*p = d.uvarint()
		case *bool:
			*p = d.byte() != 0
		case *float64:
			*p = d.float64()
		case *[]ParamSpec:
			*p = d.space()
		case *map[string]string:
			_, _, old := prev.field(i)
			spare := old.(*map[string]string)
			n := d.count(2) // two empty strings
			*p = nil
			if n > 0 && *spare != nil {
				clear(*spare)
				*p, *spare = *spare, nil
			} else if n > 0 {
				*p = make(map[string]string, min(n, 16)) // a configuration's keys fit appendMessage's stack array
			}
			for j := 0; j < n && d.err == nil; j++ {
				k := d.strs.string(d.bytes())
				(*p)[k] = d.strs.string(d.bytes())
			}
		}
	}
}

// space decodes a space; an empty one decodes as absent, which is how
// it is encoded.
func (d *decoder) space() []ParamSpec {
	n := d.count(6) // two empty strings, three one-byte varints, no values
	if n == 0 {
		return nil
	}
	specs := make([]ParamSpec, n)
	for i := range specs {
		p := &specs[i]
		p.Name = d.string("")
		p.Kind = d.string("")
		p.Min = d.varint()
		p.Max = d.varint()
		p.Step = d.varint()
		for range d.count(1) {
			p.Values = append(p.Values, d.string(""))
		}
	}
	return specs
}
