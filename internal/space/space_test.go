package space

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"
)

func testSpace(t *testing.T) *Space {
	t.Helper()
	s, err := New(
		IntParam("rows", 10, 100, 10),
		EnumParam("alg", "heap", "quick", "merge"),
		IntParam("bias", -5, 5, 1),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestIntParamLevels(t *testing.T) {
	cases := []struct {
		min, max, step int64
		want           int64
	}{
		{0, 9, 1, 10},
		{10, 100, 10, 10},
		{1, 1, 1, 1},
		{0, 10, 3, 4}, // 0,3,6,9
		{-5, 5, 1, 11},
	}
	for _, c := range cases {
		p := IntParam("p", c.min, c.max, c.step)
		if got := p.Levels(); got != c.want {
			t.Errorf("Levels(%d,%d,%d) = %d, want %d", c.min, c.max, c.step, got, c.want)
		}
	}
}

func TestIntParamValueRoundTrip(t *testing.T) {
	p := IntParam("p", 4, 40, 4)
	for lvl := int64(0); lvl < p.Levels(); lvl++ {
		v := p.IntAt(lvl)
		back, err := p.LevelOfInt(v)
		if err != nil {
			t.Fatalf("LevelOfInt(%d): %v", v, err)
		}
		if back != lvl {
			t.Fatalf("round trip: level %d -> %d -> %d", lvl, v, back)
		}
	}
}

func TestLevelOfIntOffLattice(t *testing.T) {
	p := IntParam("p", 0, 10, 2)
	if _, err := p.LevelOfInt(3); err == nil {
		t.Error("expected error for off-lattice value 3")
	}
	if _, err := p.LevelOfInt(12); err == nil {
		t.Error("expected error for out-of-range value 12")
	}
	if _, err := p.LevelOfInt(-1); err == nil {
		t.Error("expected error for out-of-range value -1")
	}
}

func TestEnumParam(t *testing.T) {
	p := EnumParam("alg", "heap", "quick")
	if p.Levels() != 2 {
		t.Fatalf("Levels = %d, want 2", p.Levels())
	}
	if got := p.StringAt(1); got != "quick" {
		t.Errorf("StringAt(1) = %q, want quick", got)
	}
	lvl, err := p.LevelOfString("heap")
	if err != nil || lvl != 0 {
		t.Errorf("LevelOfString(heap) = %d, %v", lvl, err)
	}
	if _, err := p.LevelOfString("bogus"); err == nil {
		t.Error("expected error for unknown enum value")
	}
}

func TestParamConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero step", func() { IntParam("p", 0, 10, 0) }},
		{"empty range", func() { IntParam("p", 5, 4, 1) }},
		{"no enum values", func() { EnumParam("p") }},
		{"dup enum values", func() { EnumParam("p", "a", "a") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestNewRejectsBadSpaces(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("expected error for empty space")
	}
	if _, err := New(IntParam("a", 0, 1, 1), IntParam("a", 0, 1, 1)); err == nil {
		t.Error("expected error for duplicate names")
	}
	if _, err := New(Param{Name: "", Kind: Int, Min: 0, Max: 1, Step: 1}); err == nil {
		t.Error("expected error for empty name")
	}
	// Parameters built without IntParam or EnumParam: New counts their
	// levels, so it refuses the ones that have none.
	for _, p := range []Param{
		{Name: "a", Kind: Int, Min: 0, Max: 1, Step: 0},
		{Name: "a", Kind: Int, Min: 2, Max: 1, Step: 1},
		{Name: "a", Kind: Enum},
		{Name: "a", Kind: Kind(7), Min: 0, Max: 1, Step: 1},
	} {
		if _, err := New(p); err == nil {
			t.Errorf("expected error for %+v", p)
		}
	}
}

// TestSpaceLevelsMatchParams: the level counts a space keeps are its
// parameters' Levels, for parameters built by hand and by IntParam and
// EnumParam alike, and for parameters too wide to keep a count. Keeping
// the counts makes a Param no larger than its exported fields.
func TestSpaceLevelsMatchParams(t *testing.T) {
	sp := MustNew(
		IntParam("a", -7, 20, 3),
		EnumParam("b", "x", "y"),
		Param{Name: "c", Kind: Int, Min: 5, Max: 5, Step: 9},
		IntParam("d", 1, 1000, 1),
		IntParam("e", 0, math.MaxUint32-1, 1),
		IntParam("f", 0, math.MaxUint32, 1),
		IntParam("g", math.MinInt64, -2, 1),
	)
	for d, p := range sp.Params() {
		if got, want := sp.Levels(d), p.Levels(); got != want {
			t.Errorf("dimension %d: Levels = %d, want %d", d, got, want)
		}
	}
	exported := unsafe.Sizeof(struct {
		Name           string
		Kind           int64
		Min, Max, Step int64
		Values         []string
	}{})
	if got := unsafe.Sizeof(Param{}); got != exported {
		t.Errorf("a Param takes %d bytes, its exported fields %d", got, exported)
	}
}

// TestIntSpanBounds pins the widest span an Int parameter may have:
// Max-Min must stay below math.MaxInt64, so Levels and every v-Min fit
// in an int64. New rejects a wider one and IntParam panics on it; at
// the bound every level, grid points included, decodes back to its
// value.
func TestIntSpanBounds(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, c := range []struct {
		min, max int64
		ok       bool
	}{
		{lo, hi, false},
		{lo, 0, false},
		{lo, -1, false},
		{-1, hi - 1, false},
		{0, hi, false},
		{lo, -2, true},
		{0, hi - 1, true},
		{1, hi, true},
		{lo, lo, true},
		{hi, hi, true},
	} {
		name := fmt.Sprintf("[%d,%d]", c.min, c.max)
		t.Run(name, func(t *testing.T) {
			sp, err := New(Param{Name: "a", Kind: Int, Min: c.min, Max: c.max, Step: 1})
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				IntParam("a", c.min, c.max, 1)
				return false
			}()
			if c.ok != (err == nil) || c.ok == panicked {
				t.Fatalf("New error %v, IntParam panicked %v; want accepted %v", err, panicked, c.ok)
			}
			if !c.ok {
				return
			}
			p := sp.Params()[0]
			if l := p.Levels(); l != c.max-c.min+1 || sp.Size() != l {
				t.Fatalf("Levels = %d, Size = %d, want %d", l, sp.Size(), c.max-c.min+1)
			}
			rng := rand.New(rand.NewSource(1))
			grid := points(sp.GridLattice(5))
			for _, pt := range append(grid, Point{0}, Point{p.Levels() - 1}, sp.Center(), sp.Random(rng)) {
				v := sp.MustDecode(pt).Int("a")
				if back, err := p.LevelOfInt(v); err != nil || back != pt[0] || v < c.min || v > c.max {
					t.Errorf("level %d decodes to %d, back to %d (%v)", pt[0], v, back, err)
				}
			}
		})
	}
}

func TestSize(t *testing.T) {
	s := testSpace(t)
	if got := s.Size(); got != 10*3*11 {
		t.Errorf("Size = %d, want %d", got, 10*3*11)
	}
	if got, want := s.LogSize(), math.Log10(330); math.Abs(got-want) > 1e-9 {
		t.Errorf("LogSize = %v, want %v", got, want)
	}
}

func TestSizeSaturates(t *testing.T) {
	params := make([]Param, 10)
	for i := range params {
		params[i] = IntParam("p"+string(rune('a'+i)), 0, 1<<40, 1)
	}
	s := MustNew(params...)
	if got := s.Size(); got != int64(^uint64(0)>>1) {
		t.Errorf("Size = %d, want saturation at MaxInt64", got)
	}
	// LogSize still meaningful: 10 * log10(2^40+1) ≈ 120.4.
	if got := s.LogSize(); got < 120 || got > 121 {
		t.Errorf("LogSize = %v, want ~120.4", got)
	}
}

func TestValidAndClamp(t *testing.T) {
	s := testSpace(t)
	if !s.Valid(Point{0, 0, 0}) {
		t.Error("origin should be valid")
	}
	if !s.Valid(Point{9, 2, 10}) {
		t.Error("max corner should be valid")
	}
	if s.Valid(Point{10, 0, 0}) {
		t.Error("coordinate beyond levels should be invalid")
	}
	if s.Valid(Point{0, 0}) {
		t.Error("wrong arity should be invalid")
	}
	got := s.Clamp(Point{-3, 99, 5})
	if !got.Equal(Point{0, 2, 5}) {
		t.Errorf("Clamp = %v, want [0 2 5]", got)
	}
}

func TestNearest(t *testing.T) {
	s := testSpace(t)
	cases := []struct {
		in   []float64
		want Point
	}{
		{[]float64{0.4, 1.6, 3.2}, Point{0, 2, 3}},
		{[]float64{-2, 5, 100}, Point{0, 2, 10}},
		{[]float64{8.5, 0.49, 9.5}, Point{9, 0, 10}},
		{[]float64{-0.4, -0.6, 0}, Point{0, 0, 0}},
	}
	for _, c := range cases {
		if got := s.Nearest(c.in); !got.Equal(c.want) {
			t.Errorf("Nearest(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNearestPropertyInBox(t *testing.T) {
	s := testSpace(t)
	f := func(a, b, c float64) bool {
		pt := s.Nearest([]float64{a * 100, b * 100, c * 100})
		return s.Valid(pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	s := testSpace(t)
	pt := Point{3, 1, 7}
	cfg, err := s.Decode(pt)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got := cfg.Int("rows"); got != 40 {
		t.Errorf("rows = %d, want 40", got)
	}
	if got := cfg.String("alg"); got != "quick" {
		t.Errorf("alg = %q, want quick", got)
	}
	if got := cfg.Int("bias"); got != 2 {
		t.Errorf("bias = %d, want 2", got)
	}
	back, err := s.Encode(cfg.Map())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !back.Equal(pt) {
		t.Errorf("round trip: %v -> %v", pt, back)
	}
}

// TestConfigLookup pins the non-panicking accessors to what Map plus
// strconv.Atoi read: every present name, either kind, and a miss.
func TestConfigLookup(t *testing.T) {
	s := MustNew(
		IntParam("rows", 10, 1000, 10),
		EnumParam("alg", "heap", "quick"),
		EnumParam("negrid", "8", "16", "x32"),
	)
	for _, pt := range []Point{{14, 1, 1}, {0, 0, 2}} {
		cfg := s.MustDecode(pt)
		for _, name := range append(s.Names(), "absent") {
			want, present := cfg.Map()[name]
			if got, ok := cfg.Lookup(name); ok != present || got != want {
				t.Errorf("%v Lookup(%q) = %q, %v; Map has %q, %v", pt, name, got, ok, want, present)
			}
			wantN, err := strconv.Atoi(want)
			if got, ok := cfg.LookupInt(name); ok != (present && err == nil) || (ok && got != wantN) {
				t.Errorf("%v LookupInt(%q) = %d, %v; Atoi(%q) = %d, %v", pt, name, got, ok, want, wantN, err)
			}
		}
	}
}

func TestDecodeRejectsBadPoints(t *testing.T) {
	s := testSpace(t)
	if _, err := s.Decode(Point{0, 0}); err == nil {
		t.Error("expected arity error")
	}
	if _, err := s.Decode(Point{0, 5, 0}); err == nil {
		t.Error("expected range error")
	}
}

// TestDecodeCopiesDecodeSharedDoesNot pins who owns a decoded point:
// Decode's Config keeps a copy, so a caller that changes the point
// afterwards (a speculative point, a facade user's) does not change
// the configuration, while DecodeShared's Config reads the point
// itself. Both check the point first.
func TestDecodeCopiesDecodeSharedDoesNot(t *testing.T) {
	s := testSpace(t)
	pt := Point{1, 2, 0}
	copied, err := s.Decode(pt)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.DecodeShared(pt)
	if err != nil {
		t.Fatal(err)
	}
	want := copied.Format()
	pt[1] = 3
	if got := copied.Format(); got != want {
		t.Errorf("Decode's config changed with its point: %s, want %s", got, want)
	}
	if !shared.Point().Equal(pt) {
		t.Errorf("DecodeShared's config reads %v, want the point itself, now %v", shared.Point(), pt)
	}
	for _, bad := range []Point{{0, 0}, {0, 5, 0}} {
		if _, err := s.DecodeShared(bad); err == nil {
			t.Errorf("DecodeShared(%v) read a point the space refuses", bad)
		}
	}
}

func TestEncodeRejectsMissingOrBad(t *testing.T) {
	s := testSpace(t)
	if _, err := s.Encode(map[string]string{"rows": "10", "alg": "heap"}); err == nil {
		t.Error("expected missing-parameter error")
	}
	if _, err := s.Encode(map[string]string{"rows": "10", "alg": "bogus", "bias": "0"}); err == nil {
		t.Error("expected bad-enum error")
	}
	if _, err := s.Encode(map[string]string{"rows": "11", "alg": "heap", "bias": "0"}); err == nil {
		t.Error("expected off-lattice error")
	}
}

func TestEncodeDecodePropertyRoundTrip(t *testing.T) {
	s := testSpace(t)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		pt := s.Random(rng)
		cfg := s.MustDecode(pt)
		back, err := s.Encode(cfg.Map())
		if err != nil {
			t.Fatalf("Encode(%v): %v", cfg.Map(), err)
		}
		if !back.Equal(pt) {
			t.Fatalf("round trip failed: %v -> %v", pt, back)
		}
	}
}

func TestConfigFormatDeterministic(t *testing.T) {
	s := testSpace(t)
	cfg := s.MustDecode(Point{0, 2, 10})
	want := "rows=10 alg=merge bias=5"
	if got := cfg.Format(); got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

func TestAxisPoints(t *testing.T) {
	s := testSpace(t)
	pts := s.AxisPoints(Point{0, 0, 0}, 1)
	if len(pts) != 3 {
		t.Fatalf("got %d axis points, want 3", len(pts))
	}
	for i, pt := range pts {
		if pt[1] != int64(i) {
			t.Errorf("axis point %d has level %d", i, pt[1])
		}
	}
}

func TestGridBudget(t *testing.T) {
	s := testSpace(t)
	for _, budget := range []int{1, 5, 27, 100, 330, 10000} {
		pts := points(s.GridLattice(budget))
		if len(pts) == 0 {
			t.Fatalf("budget %d: empty grid", budget)
		}
		if len(pts) > budget {
			t.Errorf("budget %d: grid has %d points", budget, len(pts))
		}
		seen := map[string]bool{}
		for _, pt := range pts {
			if !s.Valid(pt) {
				t.Fatalf("budget %d: invalid grid point %v", budget, pt)
			}
			if seen[pt.Key()] {
				t.Fatalf("budget %d: duplicate grid point %v", budget, pt)
			}
			seen[pt.Key()] = true
		}
	}
	if pts := points(s.GridLattice(0)); len(pts) != 0 {
		t.Errorf("GridLattice(0) has points %v", pts)
	}
}

func TestGridCoversFullSpaceWhenBudgetAllows(t *testing.T) {
	s := MustNew(IntParam("a", 0, 2, 1), IntParam("b", 0, 1, 1))
	pts := points(s.GridLattice(100))
	if len(pts) != 6 {
		t.Errorf("got %d points, want all 6", len(pts))
	}
}

func TestPointKeyUnique(t *testing.T) {
	a := Point{1, 23}
	b := Point{12, 3}
	if a.Key() == b.Key() {
		t.Errorf("keys collide: %q", a.Key())
	}
}

// TestAppendKey pins AppendKey to Key's bytes, and to zero allocations
// into a buffer that already has room: the evaluation cache assembles
// its lookup keys this way on every proposal.
func TestAppendKey(t *testing.T) {
	pt := Point{0, -7, 123456789, 42}
	buf := make([]byte, 0, 64)
	if got, want := string(pt.AppendKey(buf)), pt.Key(); got != want || want != "0,-7,123456789,42" {
		t.Errorf("AppendKey = %q, Key = %q", got, want)
	}
	if got := string(pt.AppendKey([]byte("p\x00"))); got != "p\x000,-7,123456789,42" {
		t.Errorf("AppendKey after a prefix = %q", got)
	}
	if raceEnabled {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	if n := testing.AllocsPerRun(100, func() { buf = pt.AppendKey(buf[:0]) }); n != 0 {
		t.Errorf("AppendKey into a sized buffer allocates %v times, want 0", n)
	}
}

// TestMapInto: rendering into a used map leaves exactly the config's
// entries, in the map it was given.
func TestMapInto(t *testing.T) {
	s := testSpace(t)
	cfg := s.MustDecode(s.Center())
	used := map[string]string{"stale": "1", "rows": "bogus"}
	got := cfg.MapInto(used)
	if !reflect.DeepEqual(got, cfg.Map()) {
		t.Errorf("MapInto = %v, want %v", got, cfg.Map())
	}
	if got["stale"] = "x"; used["stale"] != "x" {
		t.Error("MapInto did not render into the map it was given")
	}
}

func TestPointCloneIndependent(t *testing.T) {
	a := Point{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestSpreadEndpoints(t *testing.T) {
	levels := spread(11, 4)
	if levels[0] != 0 || levels[len(levels)-1] != 10 {
		t.Errorf("spread(11,4) = %v, want endpoints 0 and 10", levels)
	}
	if got := spread(3, 10); len(got) != 3 {
		t.Errorf("spread(3,10) = %v, want all 3 levels", got)
	}
	if got := spread(9, 1); len(got) != 1 || got[0] != 4 {
		t.Errorf("spread(9,1) = %v, want [4]", got)
	}
}

func TestParamLookup(t *testing.T) {
	s := testSpace(t)
	p, ok := s.Param("alg")
	if !ok || p.Kind != Enum {
		t.Errorf("Param(alg) = %+v, %v", p, ok)
	}
	if _, ok := s.Param("missing"); ok {
		t.Error("Param(missing) should report false")
	}
	if got := s.IndexOf("bias"); got != 2 {
		t.Errorf("IndexOf(bias) = %d, want 2", got)
	}
	if got := s.IndexOf("nope"); got != -1 {
		t.Errorf("IndexOf(nope) = %d, want -1", got)
	}
	names := s.Names()
	if len(names) != 3 || names[0] != "rows" || names[2] != "bias" {
		t.Errorf("Names = %v", names)
	}
}

func TestCenterIsValid(t *testing.T) {
	s := testSpace(t)
	if !s.Valid(s.Center()) {
		t.Errorf("Center %v invalid", s.Center())
	}
	one := MustNew(IntParam("x", 5, 5, 1))
	if got := one.Center(); got[0] != 0 {
		t.Errorf("single-level center = %v", got)
	}
}

func TestKindString(t *testing.T) {
	if Int.String() != "int" || Enum.String() != "enum" {
		t.Error("Kind.String wrong")
	}
	if got := Kind(9).String(); got == "" {
		t.Error("unknown kind should still render")
	}
}
