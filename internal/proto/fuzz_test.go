package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"harmony/internal/space"
)

// fuzzSeeds is one message of every type, with every field some
// message uses set, including a report that asks for the next
// configuration and the config reply that answers it.
func fuzzSeeds() []*Message {
	sp := space.MustNew(
		space.IntParam("rows", 10, 100, 10),
		space.EnumParam("alg", "heap", "quick"),
	)
	return []*Message{
		{
			Type: TypeRegister, App: "gs2", Machine: "mcr", Strategy: StrategyPRO,
			Space: EncodeSpace(sp), Seed: -42, MaxRuns: 64, Reporters: 3, Parallel: true,
			Seq: 1, CacheNS: "tenant-a", Surrogate: true, SurrogateKeep: 0.25, Async: true, AsyncDepth: 12,
		},
		{Type: TypeRegistered, Session: "s17", Seq: 1},
		{Type: TypeFetch, Session: "s17", Seq: 2},
		{Type: TypeConfig, Values: map[string]string{"rows": "40", "alg": "heap"}, Tag: 12, Seq: 2},
		{Type: TypeReport, Session: "s17", Perf: 16.25, Tag: 12, Next: true, Seq: 3},
		{Type: TypeConfig, Values: map[string]string{"rows": "20", "alg": "quick"}, Converged: true, Seq: 3},
		{Type: TypeReport, Session: "s17", Perf: math.Inf(1), Tag: 13, Gen: 2},
		{Type: TypeBest, Session: "s17"},
		{Type: TypeBestReply, Values: map[string]string{"alg": "quick"}, Perf: -1.5, Converged: true},
		{Type: TypeDone, Session: "s17"},
		{Type: TypeOK},
		{Type: TypeError, Error: "unknown session \"nope\""},
		{Type: "future-type", Session: "s1"},
	}
}

func addFrameSeeds(f *testing.F) {
	msgs := fuzzSeeds()
	for i, m := range msgs {
		buf, err := AppendFrame(nil, &Frame{ID: uint64(i), Msgs: []*Message{m}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	buf, err := AppendFrame(nil, &Frame{ID: 99, Msgs: msgs})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(buf)
}

// sameFloat is == with NaN equal to a NaN of the same bits.
func sameFloat(a, b float64) bool {
	return a == b || math.Float64bits(a) == math.Float64bits(b)
}

// sameMessage compares two messages field by field, the floats by
// sameFloat.
func sameMessage(a, b *Message) bool {
	if !sameFloat(a.Perf, b.Perf) || !sameFloat(a.SurrogateKeep, b.SurrogateKeep) {
		return false
	}
	x, y := *a, *b
	x.Perf, y.Perf, x.SurrogateKeep, y.SurrogateKeep = 0, 0, 0, 0
	return reflect.DeepEqual(x, y)
}

func readFrame(data []byte) (*Frame, error) {
	return ReadFrame(bufio.NewReader(bytes.NewReader(data)))
}

// FuzzReadFrame: the frame decoder never panics on any input, and a
// frame it accepts re-encodes to a frame that decodes to the same
// messages.
func FuzzReadFrame(f *testing.F) {
	addFrameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(data)
		if err != nil {
			return
		}
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		back, err := readFrame(buf)
		if err != nil {
			t.Fatalf("decoding a re-encoded frame: %v", err)
		}
		if back.ID != fr.ID || len(back.Msgs) != len(fr.Msgs) {
			t.Fatalf("frame id %d with %d messages came back as id %d with %d", fr.ID, len(fr.Msgs), back.ID, len(back.Msgs))
		}
		for i, m := range fr.Msgs {
			if !sameMessage(back.Msgs[i], m) {
				t.Fatalf("message %d\n got %+v\nwant %+v", i, back.Msgs[i], m)
			}
		}
	})
}

// committedFrames returns the inputs committed for FuzzReadFrame.
func committedFrames(f *testing.F) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadFrame", "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1", then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		out = append(out, []byte(data))
	}
	return out
}

// FuzzReadFrameInto: decoding a frame into the Frame that held another
// leaves nothing of the first behind. The input is two frames back to
// back, A then B; when A decodes, B decoded into the same Frame must
// equal B decoded fresh, or fail as the fresh decode does. Seeds pair
// every hand-made frame with every hand-made and committed one.
func FuzzReadFrameInto(f *testing.F) {
	var seeds [][]byte
	for i, m := range fuzzSeeds() {
		buf, err := AppendFrame(nil, &Frame{ID: uint64(i), Msgs: []*Message{m}})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf)
	}
	all, err := AppendFrame(nil, &Frame{ID: 99, Msgs: fuzzSeeds()})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, all)
	for _, a := range seeds {
		for _, b := range append(seeds, committedFrames(f)...) {
			f.Add(append(append([]byte(nil), a...), b...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var fr Frame
		if ReadFrameInto(r, &fr) != nil {
			return
		}
		rest := data[4+binary.BigEndian.Uint32(data):]
		want, wantErr := readFrame(rest)
		err := ReadFrameInto(r, &fr)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("second frame: reused decode err = %v, fresh decode err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if fr.ID != want.ID || len(fr.Msgs) != len(want.Msgs) {
			t.Fatalf("second frame: id %d with %d messages, fresh id %d with %d", fr.ID, len(fr.Msgs), want.ID, len(want.Msgs))
		}
		for i, m := range want.Msgs {
			if !sameMessage(fr.Msgs[i], m) {
				t.Fatalf("message %d\n got %+v\nwant %+v", i, fr.Msgs[i], m)
			}
		}
	})
}

// FuzzCodecsAgree: every message the binary decoder accepts crosses
// the JSON line protocol unchanged, so the two codecs carry the same
// Message. Two kinds of message are skipped, because JSON cannot carry
// them and the protocol never produces them:
//   - a string that is not UTF-8: encoding/json replaces invalid bytes
//     with U+FFFD, while binary frames carry raw bytes;
//   - a non-finite SurrogateKeep: JSON has no number for it, and Send
//     refuses the message with ErrMarshal (Perf has PerfText; nothing
//     else needs one).
//
// A NaN Perf crosses JSON as the text "NaN", so it comes back as
// math.NaN() whatever its payload bits were.
func FuzzCodecsAgree(f *testing.F) {
	addFrameSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(data)
		if err != nil {
			return
		}
		for _, m := range fr.Msgs {
			if !utf8Message(m) {
				continue
			}
			var buf bytes.Buffer
			if err := NewConn(rwcloser{strings.NewReader(""), &buf}).Send(m); err != nil {
				if errors.Is(err, ErrMarshal) && (math.IsInf(m.SurrogateKeep, 0) || math.IsNaN(m.SurrogateKeep)) {
					continue
				}
				t.Fatalf("Send(%+v): %v", m, err)
			}
			got, err := NewConn(rwcloser{&buf, io.Discard}).Recv()
			if err != nil {
				t.Fatalf("Recv(%q): %v", buf.String(), err)
			}
			want := *m
			if math.IsNaN(want.Perf) {
				want.Perf = math.NaN()
			}
			if !sameMessage(got, &want) {
				t.Fatalf("JSON changed the message\n got %+v\nwant %+v", got, &want)
			}
		}
	})
}

// utf8Message reports whether every string of m is valid UTF-8.
func utf8Message(m *Message) bool {
	strs := []string{m.Type, m.Session, m.App, m.Machine, m.Strategy, m.CacheNS, m.Error}
	for _, p := range m.Space {
		strs = append(strs, p.Name, p.Kind)
		strs = append(strs, p.Values...)
	}
	for _, s := range strs {
		if !utf8.ValidString(s) {
			return false
		}
	}
	for k, v := range m.Values {
		if !utf8.ValidString(k) || !utf8.ValidString(v) {
			return false
		}
	}
	return true
}

// FuzzDecodeSpace: the space of a register message comes from the
// client. DecodeSpace either refuses it, or every query a strategy
// makes of the space it returns — Size, LogSize, Center, Random draws,
// the systematic grid — returns without panicking and yields points
// that decode. The input is two int parameters and one enum, whose
// values are vals split at commas.
func FuzzDecodeSpace(f *testing.F) {
	f.Add(int64(10), int64(100), int64(10), int64(-5), int64(5), int64(1), "heap,quick")
	f.Fuzz(func(t *testing.T, aMin, aMax, aStep, bMin, bMax, bStep int64, vals string) {
		sp, err := DecodeSpace([]ParamSpec{
			{Name: "a", Kind: "int", Min: aMin, Max: aMax, Step: aStep},
			{Name: "b", Kind: "int", Min: bMin, Max: bMax, Step: bStep},
			{Name: "e", Kind: "enum", Values: strings.Split(vals, ",")},
		})
		if err != nil {
			return
		}
		if sp.Size() < 1 || math.IsNaN(sp.LogSize()) || sp.LogSize() < 0 {
			t.Fatalf("Size = %d, LogSize = %v", sp.Size(), sp.LogSize())
		}
		rng := rand.New(rand.NewSource(aMin ^ bMax))
		pts := []space.Point{sp.Center(), sp.Random(rng), sp.Random(rng), sp.Random(rng)}
		lat := sp.GridLattice(16)
		for k := range lat.Size() {
			pt := make(space.Point, sp.Dims())
			lat.At(k, pt)
			pts = append(pts, pt)
		}
		for _, pt := range pts {
			cfg, err := sp.Decode(pt)
			if err != nil {
				t.Fatalf("point %v: %v", pt, err)
			}
			if a := cfg.Int("a"); a < aMin || a > aMax {
				t.Fatalf("point %v decodes a = %d outside [%d,%d]", pt, a, aMin, aMax)
			}
			if _, err := sp.Encode(cfg.Map()); err != nil {
				t.Fatalf("point %v: encoding its config: %v", pt, err)
			}
		}
	})
}
