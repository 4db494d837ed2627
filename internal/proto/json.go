// JSON line codec.
//
// Send writes a message as exactly the bytes encoding/json's Encoder
// writes for it: members in struct field order, zero fields other than
// type omitted, values keys sorted, strings quoted with <, >, &, U+2028,
// U+2029 and control bytes escaped and invalid UTF-8 replaced by
// \ufffd, floats in ES6 form. That is the canonical line.
//
// RecvInto decodes a canonical line where it lies, field by field from
// the same key table, and hands every other line to json.Unmarshal:
// whitespace, escapes, keys out of order, unknown or repeated keys,
// null, a number an integer field cannot hold as written, and space,
// which only register carries. Peers other than Send may write any of
// those, and encoding/json stays the definition of what they mean; the
// fast path accepts only lines it decodes to the same Message
// (FuzzJSONLine).
package proto

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// appendJSON appends m's canonical line, newline included. A non-finite
// Perf goes out as perf_text: Perf is the one float member, so every
// message has a line.
func appendJSON(buf []byte, m *Message) []byte {
	perfText := m.PerfText
	if isNonFinite(m.Perf) {
		perfText = formatNonFinite(m.Perf)
	}
	buf = append(buf, '{')
	for i := 0; ; i++ {
		key, _, p := m.field(i)
		switch p := p.(type) {
		case nil:
			return append(buf, '}', '\n')
		case *string:
			s := *p
			if p == &m.PerfText {
				s = perfText
			}
			if s != "" || i == 0 {
				buf = appendJSONString(appendKey(buf, key), s)
			}
		case *int:
			if *p != 0 {
				buf = strconv.AppendInt(appendKey(buf, key), int64(*p), 10)
			}
		case *int64:
			if *p != 0 {
				buf = strconv.AppendInt(appendKey(buf, key), *p, 10)
			}
		case *uint64:
			if *p != 0 {
				buf = strconv.AppendUint(appendKey(buf, key), *p, 10)
			}
		case *bool:
			if *p {
				buf = append(appendKey(buf, key), "true"...)
			}
		case *float64:
			if v := *p; v != 0 && !isNonFinite(v) {
				buf = appendJSONFloat(appendKey(buf, key), v)
			}
		case *[]ParamSpec:
			if len(*p) > 0 {
				buf = appendJSONSpace(appendKey(buf, key), *p)
			}
		case *map[string]string:
			if len(*p) > 0 {
				buf = appendJSONValues(appendKey(buf, key), *p)
			}
		}
	}
}

// appendKey appends `"key":`, after a comma unless it opens an object:
// no value ends in '{'.
func appendKey(buf []byte, key string) []byte {
	if buf[len(buf)-1] != '{' {
		buf = append(buf, ',')
	}
	buf = append(buf, '"')
	buf = append(buf, key...)
	return append(buf, '"', ':')
}

func appendJSONSpace(buf []byte, specs []ParamSpec) []byte {
	buf = append(buf, '[')
	for i, p := range specs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(append(buf, `{"name":`...), p.Name)
		buf = appendJSONString(append(buf, `,"kind":`...), p.Kind)
		for _, f := range [...]struct {
			key string
			v   int64
		}{{`,"min":`, p.Min}, {`,"max":`, p.Max}, {`,"step":`, p.Step}} {
			if f.v != 0 {
				buf = strconv.AppendInt(append(buf, f.key...), f.v, 10)
			}
		}
		if len(p.Values) > 0 {
			buf = append(buf, `,"values":[`...)
			for j, v := range p.Values {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = appendJSONString(buf, v)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

func appendJSONValues(buf []byte, vals map[string]string) []byte {
	var stack [16]string
	buf = append(buf, '{')
	for i, k := range sortedKeys(stack[:0], vals) {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(append(appendJSONString(buf, k), ':'), vals[k])
	}
	return append(buf, '}')
}

// sortedKeys appends vals' keys to dst in sorted order: wire bytes must
// not depend on Go's randomised map iteration.
func sortedKeys(dst []string, vals map[string]string) []string {
	for k := range vals {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted with HTML escaping, byte for byte
// as encoding/json quotes it.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			if c == '"' || c == '\\' {
				buf = append(buf, '\\', c)
			} else if j := strings.IndexByte("\b\f\n\r\t", c); j >= 0 {
				buf = append(buf, '\\', "bfnrt"[j])
			} else {
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(append(buf, s[start:i]...), `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			buf = append(append(buf, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(buf, s[start:]...), '"')
}

// appendJSONFloat appends v in the ES6 form encoding/json writes:
// exponent notation below 1e-6 and from 1e21, without a leading zero
// in a negative exponent.
func appendJSONFloat(buf []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, v, format, -1, 64)
	if n := len(buf); format == 'e' && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1]
		buf = buf[:n-1]
	}
	return buf
}

// decodeJSON decodes line into m if it is canonical: one object of
// members in struct field order, each at most once, with strings that
// need no unescaping, then '\n'. Strings are copied out; one equal to
// the field it replaces is kept, and values keys and values come from
// the Conn's table. m.Values, empty, receives the values. It reports
// false for any other line, leaving m unspecified.
func (c *Conn) decodeJSON(line []byte, m *Message) bool {
	n := len(line)
	if n < 3 || line[0] != '{' || line[n-2] != '}' || line[n-1] != '\n' {
		return false
	}
	prev := *m
	*m = Message{Values: prev.Values}
	b := line[1 : n-2]
	next := 0 // the members before it are decoded or absent
	for len(b) > 0 {
		if next > 0 {
			if b[0] != ',' {
				return false
			}
			b = b[1:]
		}
		key, rest, ok := jsonString(b)
		if !ok || len(rest) == 0 || rest[0] != ':' {
			return false
		}
		b = rest[1:]
		var field any
		for field == nil {
			name, _, p := m.field(next)
			if p == nil {
				return false
			}
			if next++; name == string(key) {
				field = p
			}
		}
		switch p := field.(type) {
		case *string:
			var s []byte
			if s, b, ok = jsonString(b); !ok {
				return false
			}
			if p == &m.Type {
				if code := typeCode(string(s)); code != 0 {
					*p = typeNames[code]
					break
				}
			}
			_, _, old := prev.field(next - 1)
			*p = reuse(*old.(*string), s)
		case *int:
			var v int64
			if v, b, ok = jsonInt(b); !ok || int64(int(v)) != v {
				return false
			}
			*p = int(v)
		case *int64:
			if *p, b, ok = jsonInt(b); !ok {
				return false
			}
		case *uint64:
			var v int64
			if len(b) > 0 && b[0] == '-' { // encoding/json refuses even -0 here
				return false
			}
			if v, b, ok = jsonInt(b); !ok {
				return false
			}
			*p = uint64(v)
		case *float64:
			if *p, b, ok = jsonFloat(b); !ok {
				return false
			}
		case *bool:
			switch {
			case strings.HasPrefix(string(b), "true"):
				*p, b = true, b[4:]
			case strings.HasPrefix(string(b), "false"):
				b = b[5:]
			default:
				return false
			}
		case *map[string]string:
			if b, ok = c.jsonValues(b, m); !ok {
				return false
			}
		default: // space: only register carries it
			return false
		}
	}
	return true
}

// jsonValues decodes the values object at the head of b into m.Values.
func (c *Conn) jsonValues(b []byte, m *Message) ([]byte, bool) {
	if len(b) < 2 || b[0] != '{' {
		return nil, false
	}
	if b[1] == '}' {
		return b[2:], true
	}
	b = b[1:]
	for {
		k, rest, ok := jsonString(b)
		if !ok || len(rest) == 0 || rest[0] != ':' {
			return nil, false
		}
		v, rest, ok := jsonString(rest[1:])
		if !ok || len(rest) == 0 {
			return nil, false
		}
		if m.Values == nil {
			m.Values = make(map[string]string)
		}
		m.Values[c.strs.string(k)] = c.strs.string(v)
		switch rest[0] {
		case ',':
			b = rest[1:]
		case '}':
			return rest[1:], true
		default:
			return nil, false
		}
	}
}

// jsonString returns the contents of the string at the head of b if
// they are the string itself: no escape, no control byte, valid UTF-8.
func jsonString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	ascii := true
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s = b[1:i]
			return s, b[i+1:], ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, nil, false
}

// jsonInt returns the integer at the head of b, in JSON's grammar and
// of at most 18 digits, so it cannot overflow. Whatever follows is the
// caller's to check: a fraction or exponent is not a ',' or the end.
func jsonInt(b []byte) (v int64, rest []byte, ok bool) {
	start := 0
	if len(b) > 0 && b[0] == '-' {
		start = 1
	}
	i := digitsEnd(b, start)
	if digits := i - start; digits == 0 || digits > 18 || digits > 1 && b[start] == '0' {
		return 0, nil, false
	}
	for _, d := range b[start:i] {
		v = v*10 + int64(d-'0')
	}
	if start == 1 {
		v = -v
	}
	return v, b[i:], true
}

// jsonFloat returns the number at the head of b, in JSON's grammar,
// as strconv.ParseFloat reads it; one out of float64's range is not ok.
func jsonFloat(b []byte) (v float64, rest []byte, ok bool) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	j := digitsEnd(b, i)
	if j == i || j-i > 1 && b[i] == '0' {
		return 0, nil, false
	}
	i = j
	if i < len(b) && b[i] == '.' {
		if j = digitsEnd(b, i+1); j == i+1 {
			return 0, nil, false
		}
		i = j
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digitsEnd(b, i); j == i {
			return 0, nil, false
		}
		i = j
	}
	v, err := strconv.ParseFloat(string(b[:i]), 64)
	return v, b[i:], err == nil
}

// digitsEnd returns the index of the first non-digit of b from i on.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// reuse returns prev if b spells it and a copy of b otherwise, so a
// reused message that decodes the same session id again allocates
// nothing.
func reuse(prev string, b []byte) string {
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// strTable remembers the short strings a decoder copied out last, one
// per slot of a string's hash, so one equal to a remembered string is
// shared instead of copied again: configuration keys and values repeat
// from one reply to the next. It holds a fixed number of strings of at
// most maxTabled bytes each, however many a peer sends.
type strTable [32]string

const maxTabled = 32

func (t *strTable) string(b []byte) string {
	if len(b) > maxTabled {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	s := &t[h%uint32(len(t))]
	if *s != string(b) {
		*s = string(b)
	}
	return *s
}
