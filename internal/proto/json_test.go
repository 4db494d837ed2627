package proto

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// encodingJSONLine is m as json.Encoder writes it, after the one rule
// Send adds: a non-finite Perf travels as PerfText.
func encodingJSONLine(m *Message) ([]byte, error) {
	cp := *m
	if isNonFinite(cp.Perf) {
		cp.PerfText, cp.Perf = formatNonFinite(cp.Perf), 0
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&cp)
	return buf.Bytes(), err
}

// sendLine is m as Send writes it.
func sendLine(m *Message) ([]byte, error) {
	var buf bytes.Buffer
	err := NewConn(rwcloser{strings.NewReader(""), &buf}).Send(m)
	return buf.Bytes(), err
}

// randomMessage draws a message whose fields reach every escaping and
// number-formatting rule of encoding/json, each set with probability
// one half.
func randomMessage(r *rand.Rand) *Message {
	pieces := []string{"a", "Z9", "<", ">", "&", "\x01", "\x1f", "\x7f", "\xff", "\xc3", "é", "\u2028", "\u2029",
		`"`, `\`, "\n", "\t", "\b", "\f", "\r", "/", " ", "€", "\U0001F600"}
	str := func() string {
		var b strings.Builder
		for range r.IntN(6) {
			b.WriteString(pieces[r.IntN(len(pieces))])
		}
		return b.String()
	}
	floats := []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 5e-324, -5e-324,
		math.MaxFloat64, -1.5, 123.456, 1e-7, 1.5e-300, 2e20, math.Copysign(0, -1), 0.1, -1e22, 1 / 3.0}
	float := func() float64 {
		if r.IntN(4) == 0 {
			return r.NormFloat64() * math.Pow(10, float64(r.IntN(60)-30))
		}
		return floats[r.IntN(len(floats))]
	}
	ints := []int64{-1, 1, -42, math.MaxInt64, math.MinInt64, 1e18, -1e18 - 7, 999999999999999999}
	i64 := func() int64 {
		if r.IntN(2) == 0 {
			return r.Int64N(2001) - 1000
		}
		return ints[r.IntN(len(ints))]
	}
	half := func() bool { return r.IntN(2) == 0 }

	m := &Message{Type: str()}
	setters := []func(){
		func() { m.Session = str() },
		func() { m.Seq = r.Uint64() >> r.IntN(64) },
		func() { m.App, m.Machine, m.Strategy = str(), str(), str() },
		func() {
			for range r.IntN(3) + 1 {
				p := ParamSpec{Name: str(), Kind: str(), Min: i64(), Max: i64(), Step: i64()}
				for range r.IntN(3) {
					p.Values = append(p.Values, str())
				}
				m.Space = append(m.Space, p)
			}
		},
		func() { m.Seed = i64() },
		func() { m.MaxRuns, m.Reporters, m.AsyncDepth = int(i64()), int(i64()), int(i64()) },
		func() { m.CacheNS = str() },
		func() { m.Parallel, m.Surrogate, m.Async = half(), half(), half() },
		func() { m.SurrogateKeep = float() },
		func() { m.Tag, m.Gen = int(i64()), int(i64()) },
		func() {
			m.Values = map[string]string{}
			for range r.IntN(5) {
				m.Values[str()] = str()
			}
		},
		func() { m.Converged, m.Next = half(), half() },
		func() {
			m.Perf = float()
			if r.IntN(4) == 0 {
				m.Perf = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.IntN(3)]
			}
		},
		func() { m.PerfText = str() },
		func() { m.Error = str() },
	}
	for _, set := range setters {
		if half() {
			set()
		}
	}
	return m
}

// TestSendMatchesEncodingJSON: Send writes every message as the bytes
// json.Encoder writes for it, and refuses what it refuses, so the JSON
// line protocol's wire bytes are those of the reflection codec.
func TestSendMatchesEncodingJSON(t *testing.T) {
	msgs := fuzzSeeds()
	r := rand.New(rand.NewPCG(35, 1))
	for range 5000 {
		msgs = append(msgs, randomMessage(r))
	}
	msgs = append(msgs, &Message{Type: TypeRegister, SurrogateKeep: math.Inf(1)}, &Message{Type: TypeRegister, SurrogateKeep: math.NaN()})
	for _, m := range msgs {
		want, wantErr := encodingJSONLine(m)
		got, err := sendLine(m)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: Send err = %v, json.Encoder err = %v", m, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrMarshal) {
				t.Errorf("Send err = %v, want ErrMarshal", err)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v:\nSend         %q\njson.Encoder %q", m, got, want)
		}
	}
}

// everyField returns a message with every field set, each to a value
// of its own: a string field holds its name, an integer its index. Its
// space is one parameter with every field set too.
func everyField(t *testing.T) *Message {
	t.Helper()
	var m Message
	var spec ParamSpec
	for _, v := range []reflect.Value{reflect.ValueOf(&m).Elem(), reflect.ValueOf(&spec).Elem()} {
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				f.SetString(name)
			case reflect.Int, reflect.Int64:
				f.SetInt(-int64(i + 1))
			case reflect.Uint64:
				f.SetUint(uint64(i + 1))
			case reflect.Float64:
				f.SetFloat(0.5 + float64(i))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Map:
				f.Set(reflect.ValueOf(map[string]string{"k": name}))
			case reflect.Slice:
				if f.Type().Elem().Kind() == reflect.String {
					f.Set(reflect.ValueOf([]string{name}))
				}
			default:
				t.Fatalf("%s: no value for a %s field", name, f.Kind())
			}
		}
	}
	m.Space = []ParamSpec{spec}
	return &m
}

// TestFieldTable: Message.field lists every field of Message, in
// order, under its json tag, with binary tags that are distinct, below
// the decoder's bound, and 0 only for the two members no tag carries.
// Send writes every tag of Message and ParamSpec when each field is
// set, so a new field cannot drop off the JSON framing unnoticed, and
// the fast decoder takes the line back; TestBinaryMessageRoundTripAllFields
// does the same for binary frames.
func TestFieldTable(t *testing.T) {
	var m Message
	mv := reflect.ValueOf(&m).Elem()
	seen := make(map[byte]string)
	for i := range mv.NumField() {
		key, tag, p := m.field(i)
		sf := mv.Type().Field(i)
		jsonKey, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		if key != jsonKey || p == nil || reflect.ValueOf(p).Pointer() != mv.Field(i).Addr().Pointer() {
			t.Errorf("field(%d) = %q, %T; want %q and a pointer to %s", i, key, p, jsonKey, sf.Name)
			continue
		}
		switch {
		case tag == 0:
			if key != "type" && key != "perf_text" {
				t.Errorf("field %q has tag 0, which only type and perf_text may have", key)
			}
			continue
		case int(tag) >= len(fieldOfTag):
			t.Errorf("field %q has tag %d, beyond the decoder's %d", key, tag, len(fieldOfTag))
		case seen[tag] != "":
			t.Errorf("fields %q and %q share tag %d", seen[tag], key, tag)
		}
		seen[tag] = key
	}
	if _, _, p := m.field(mv.NumField()); p != nil {
		t.Errorf("field lists more than Message's %d fields", mv.NumField())
	}

	// Every field set, so every member is written.
	m = *everyField(t)
	spec := m.Space[0]
	line, err := sendLine(&m)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []reflect.Type{mv.Type(), reflect.TypeOf(spec)} {
		for i := range typ.NumField() {
			tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if !bytes.Contains(line, []byte(`"`+tag+`":`)) {
				t.Errorf("%s.%s (%q) is missing from %s", typ.Name(), typ.Field(i).Name, tag, line)
			}
		}
	}

	// Without space, which goes to encoding/json, the line is canonical.
	m.Space = nil
	if line, err = sendLine(&m); err != nil {
		t.Fatal(err)
	}
	var got Message
	if !NewConn(rwcloser{strings.NewReader(""), io.Discard}).decodeJSON(line, &got) {
		t.Fatalf("the fast decoder refused %s", line)
	}
	if !sameMessage(&got, &m) {
		t.Errorf("fast decode of %s\n got %+v\nwant %+v", line, &got, &m)
	}
}

// referenceRecv is what a line means: json.Unmarshal into a fresh
// message, then RecvInto's rules (empty values are absent, a message
// has a type, perf_text carries a non-finite perf).
func referenceRecv(line []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, err
	}
	if len(m.Values) == 0 {
		m.Values = nil
	}
	if m.Type == "" {
		return nil, errors.New("message missing type")
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

// nonCanonical returns variants of a canonical line that mean the same,
// or something else, or nothing: spaced out, escaped, with keys renamed,
// unknown or repeated, with raw bytes a string may not hold as they are,
// and with values a number field may or may not hold, put where the
// member stands or at the end.
func nonCanonical(line string) []string {
	body := strings.TrimSuffix(line, "}\n")
	set := func(key, v string) string {
		re := regexp.MustCompile(`"` + key + `":(-?[0-9.eE+]+|true|"[^"]*"|\{[^}]*\})`)
		if loc := re.FindStringIndex(line); loc != nil {
			return line[:loc[0]] + `"` + key + `":` + v + line[loc[1]:]
		}
		return body + `,"` + key + `":` + v + "}\n"
	}
	return []string{
		strings.ReplaceAll(line, `":`, `": `),
		"{ " + line[1:],
		strings.Replace(line, `"type":"`, `"type":"\u0041`, 1),
		strings.Replace(line, `"type"`, `"typ\u0065"`, 1),
		strings.Replace(line, `"type"`, `"Type"`, 1),
		`{"zzz":1,` + line[1:],
		body + `,"values":{"a":"b"}}` + "\n",
		set("values", `{"a":"b","a":"c"}`),
		set("values", "null"),
		set("values", `{"a":"b"]`),
		set("session", "\"s\xff\""),
		set("session", "\"s\x01\""),
		set("session", "null"),
		set("tag", "-0"),
		set("tag", "1e2"),
		set("tag", "01"),
		set("tag", "1234567890123456789"),
		set("tag", "-9223372036854775809"),
		set("seq", "-0"),
		set("seq", "18446744073709551616"),
		set("perf", "-0"),
		set("perf", "1E+2"),
		set("perf", "1e400"),
		set("next", "false"),
		set("next", "tru"),
	}
}

// FuzzJSONLine: RecvInto means by every line what encoding/json means
// by it. The fast decoder and the fallback agree with referenceRecv on
// whether a line is an error and on the message it decodes to, also
// when the message held a configuration before.
func FuzzJSONLine(f *testing.F) {
	for _, m := range fuzzSeeds() {
		line, err := sendLine(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		for _, v := range nonCanonical(string(line)) {
			f.Add([]byte(v))
		}
	}
	prime, err := sendLine(fuzzSeeds()[3])
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line, _, _ := bytes.Cut(data, []byte("\n"))
		line = append(line[:len(line):len(line)], '\n')
		want, wantErr := referenceRecv(line)
		c := NewConn(rwcloser{io.MultiReader(bytes.NewReader(prime), bytes.NewReader(line)), io.Discard})
		var m Message
		if err := c.RecvInto(&m); err != nil {
			t.Fatal(err)
		}
		err := c.RecvInto(&m)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: RecvInto err = %v, encoding/json err = %v", line, err, wantErr)
		}
		if err == nil && !sameMessage(&m, want) {
			t.Fatalf("%q\n got %+v\nwant %+v", line, &m, want)
		}
	})
}

// TestRecvIntoAllocatesNothing pins the per-round decode of the JSON
// line protocol: a report, and a config whose keys and values the Conn
// decoded before, decoded into a reused message allocate nothing. Nor
// do four messages sharing a Conn, as the handles of one session do,
// that each take a config and then an ok: an ok hands its message's
// map back to the Conn for the next config.
func TestRecvIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	report := &Message{Type: TypeReport, Session: "s1234", Perf: 123.456, Tag: 3, Next: true}
	config := &Message{Type: TypeConfig, Values: map[string]string{"x": "25", "y": "5"}, Tag: 4, Converged: true}
	var msgs [4]Message
	for _, c := range []struct {
		stream string
		n      int // messages the lines take turns to decode into
		last   *Message
	}{
		{jsonLine(t, report), 1, report},
		{jsonLine(t, config), 1, config},
		{strings.Repeat(jsonLine(t, config), 4) + strings.Repeat(jsonLine(t, &Message{Type: TypeOK}), 4), 4, &Message{Type: TypeOK}},
	} {
		src := strings.NewReader(c.stream)
		br := bufio.NewReader(src)
		conn := NewConnReader(rwcloser{src, io.Discard}, br)
		read := func() {
			src.Reset(c.stream)
			br.Reset(src)
			for i := 0; ; i++ {
				if err := conn.RecvInto(&msgs[i%c.n]); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("RecvInto of %q allocates %v times, want 0", c.stream, n)
		}
		if !sameMessage(&msgs[c.n-1], c.last) {
			t.Errorf("decoded %+v, want %+v", &msgs[c.n-1], c.last)
		}
	}
}

// TestSendAllocatesNothing: once its buffer has grown, Send encodes
// every kind of message without allocating.
func TestSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned without the race detector")
	}
	c := NewConn(rwcloser{strings.NewReader(""), io.Discard})
	msgs := fuzzSeeds()
	send := func() {
		for _, m := range msgs {
			if err := c.Send(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("Send of %d messages allocates %v times, want 0", len(msgs), n)
	}
}
