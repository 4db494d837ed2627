// Package space defines tunable-parameter search spaces for the
// Active Harmony tuning system.
//
// A Space is an ordered list of parameters. Every parameter, whether
// an integer range or an enumerated choice, is exposed to search
// strategies as a finite integer lattice dimension with levels
// 0..Levels-1. Search strategies therefore operate on uniform integer
// lattice coordinates (Point), while applications consume decoded
// concrete values (Config). This mirrors the paper's treatment of
// "each tunable parameter as a variable in an independent dimension".
package space

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
)

// Kind discriminates the two supported parameter flavours. It is 32
// bits wide so that a Param's level count fits beside it in one word.
type Kind int32

const (
	// Int is a bounded integer parameter with a step size.
	Int Kind = iota
	// Enum is an ordered, enumerated (categorical) parameter.
	Enum
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Enum:
		return "enum"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Param describes one tunable parameter.
//
// For Kind Int the parameter takes the values Min, Min+Step, ...,
// up to the largest value not exceeding Max. For Kind Enum it takes
// the values in Values, encoded as their indices.
type Param struct {
	Name string
	Kind Kind

	// levels is Levels, counted once by New for a parameter of a Space
	// so that the space's hot paths do not divide. It shares Kind's
	// word, so a Param is no larger for it, and is zero outside a Space
	// and for a parameter of 2^32 levels or more.
	levels uint32

	// Int parameters.
	Min, Max, Step int64

	// Enum parameters.
	Values []string
}

// IntParam constructs an integer parameter covering [min, max] with
// the given step. It panics if the range is empty, the step is not
// positive, or the span max-min is not below math.MaxInt64; spaces are
// built by programmers, not end users, so construction errors are
// programming errors.
func IntParam(name string, min, max, step int64) Param {
	if step <= 0 {
		panic(fmt.Sprintf("space: parameter %q has non-positive step %d", name, step))
	}
	if max < min {
		panic(fmt.Sprintf("space: parameter %q has empty range [%d,%d]", name, min, max))
	}
	if spanTooWide(min, max) {
		panic(fmt.Sprintf("space: parameter %q spans too wide a range [%d,%d]", name, min, max))
	}
	return Param{Name: name, Kind: Int, Min: min, Max: max, Step: step}
}

// spanTooWide reports whether max-min, for min <= max, overflows int64
// or equals math.MaxInt64. Below that bound Levels and every v-Min of
// an in-range value fit in an int64.
func spanTooWide(min, max int64) bool {
	return min <= 0 && max >= math.MaxInt64+min
}

// EnumParam constructs an enumerated parameter over the given values.
// It panics if no values are supplied or if values repeat.
func EnumParam(name string, values ...string) Param {
	if len(values) == 0 {
		panic(fmt.Sprintf("space: parameter %q has no values", name))
	}
	seen := make(map[string]bool, len(values))
	for _, v := range values {
		if seen[v] {
			panic(fmt.Sprintf("space: parameter %q repeats value %q", name, v))
		}
		seen[v] = true
	}
	return Param{Name: name, Kind: Enum, Values: append([]string(nil), values...)}
}

// Levels reports the number of lattice levels of the parameter.
func (p Param) Levels() int64 {
	switch p.Kind {
	case Int:
		return (p.Max-p.Min)/p.Step + 1
	case Enum:
		return int64(len(p.Values))
	default:
		panic("space: unknown parameter kind")
	}
}

// IntAt returns the concrete integer value at lattice level i.
// It panics for Enum parameters or out-of-range levels.
func (p Param) IntAt(i int64) int64 {
	if p.Kind != Int {
		panic(fmt.Sprintf("space: IntAt on %s parameter %q", p.Kind, p.Name))
	}
	if i < 0 || i >= p.Levels() {
		panic(fmt.Sprintf("space: level %d out of range for %q", i, p.Name))
	}
	return p.Min + i*p.Step
}

// StringAt returns the concrete value at lattice level i rendered as
// a string: the enum value for Enum parameters, the decimal integer
// for Int parameters.
func (p Param) StringAt(i int64) string {
	switch p.Kind {
	case Int:
		return strconv.FormatInt(p.IntAt(i), 10)
	case Enum:
		if i < 0 || i >= int64(len(p.Values)) {
			panic(fmt.Sprintf("space: level %d out of range for %q", i, p.Name))
		}
		return p.Values[i]
	default:
		panic("space: unknown parameter kind")
	}
}

// LevelOfInt returns the lattice level whose concrete value is v.
// The value must lie exactly on the lattice.
func (p Param) LevelOfInt(v int64) (int64, error) {
	if p.Kind != Int {
		return 0, fmt.Errorf("space: parameter %q is %s, not int", p.Name, p.Kind)
	}
	if v < p.Min || v > p.Max || (v-p.Min)%p.Step != 0 {
		return 0, fmt.Errorf("space: value %d not on lattice of %q [%d,%d] step %d", v, p.Name, p.Min, p.Max, p.Step)
	}
	return (v - p.Min) / p.Step, nil
}

// LevelOfString returns the lattice level whose rendered value is v.
func (p Param) LevelOfString(v string) (int64, error) {
	switch p.Kind {
	case Int:
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("space: parameter %q: %v", p.Name, err)
		}
		return p.LevelOfInt(n)
	case Enum:
		for i, s := range p.Values {
			if s == v {
				return int64(i), nil
			}
		}
		return 0, fmt.Errorf("space: value %q not among choices of %q", v, p.Name)
	default:
		panic("space: unknown parameter kind")
	}
}

// Point is a location in a space, expressed in lattice coordinates:
// element i is the level of parameter i, in [0, Levels(i)).
type Point []int64

// Clone returns an independent copy of the point.
func (pt Point) Clone() Point {
	out := make(Point, len(pt))
	copy(out, pt)
	return out
}

// Equal reports whether two points have identical coordinates.
func (pt Point) Equal(other Point) bool {
	if len(pt) != len(other) {
		return false
	}
	for i := range pt {
		if pt[i] != other[i] {
			return false
		}
	}
	return true
}

// Key renders the point as a canonical comparable string, suitable as
// a map key for evaluation caches.
func (pt Point) Key() string {
	var buf [64]byte
	return string(pt.AppendKey(buf[:0]))
}

// AppendKey appends the bytes of Key to dst and returns the extended
// slice, so a caller with its own buffer renders the key without
// allocating.
func (pt Point) AppendKey(dst []byte) []byte {
	for i, v := range pt {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, v, 10)
	}
	return dst
}

// Space is an ordered collection of parameters: the box of their
// lattice levels. Every point of the box is a valid configuration.
type Space struct {
	params []Param
	index  map[string]int
}

// New builds a space from the given parameters. Parameter names must
// be unique and non-empty, and an Int parameter's span Max-Min must be
// below math.MaxInt64.
func New(params ...Param) (*Space, error) {
	if len(params) == 0 {
		return nil, errors.New("space: no parameters")
	}
	s := &Space{
		params: append([]Param(nil), params...),
		index:  make(map[string]int, len(params)),
	}
	for i, p := range s.params {
		if p.Name == "" {
			return nil, fmt.Errorf("space: parameter %d has empty name", i)
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("space: duplicate parameter name %q", p.Name)
		}
		switch {
		case p.Kind == Int && (p.Step <= 0 || p.Max < p.Min):
			return nil, fmt.Errorf("space: parameter %q has an empty lattice [%d,%d] step %d", p.Name, p.Min, p.Max, p.Step)
		case p.Kind == Int && spanTooWide(p.Min, p.Max):
			return nil, fmt.Errorf("space: parameter %q spans too wide a range [%d,%d]", p.Name, p.Min, p.Max)
		case p.Kind == Enum && len(p.Values) == 0:
			return nil, fmt.Errorf("space: parameter %q has no values", p.Name)
		case p.Kind != Int && p.Kind != Enum:
			return nil, fmt.Errorf("space: parameter %q has unknown kind %s", p.Name, p.Kind)
		}
		if l := p.Levels(); l <= math.MaxUint32 {
			s.params[i].levels = uint32(l)
		}
		s.index[p.Name] = i
	}
	return s, nil
}

// MustNew is New, panicking on error. Intended for statically known
// spaces.
func MustNew(params ...Param) *Space {
	s, err := New(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// Dims reports the number of parameters (lattice dimensions).
func (s *Space) Dims() int { return len(s.params) }

// Levels reports the number of lattice levels of dimension d: the
// Levels of its parameter, counted once when the space was built
// unless there are 2^32 or more.
func (s *Space) Levels(d int) int64 {
	if l := s.params[d].levels; l != 0 {
		return int64(l)
	}
	return s.params[d].Levels()
}

// Params returns the parameters in order. The returned slice must not
// be modified.
func (s *Space) Params() []Param { return s.params }

// Param returns the parameter with the given name.
func (s *Space) Param(name string) (Param, bool) {
	i, ok := s.index[name]
	if !ok {
		return Param{}, false
	}
	return s.params[i], true
}

// IndexOf returns the dimension index of the named parameter, or -1.
func (s *Space) IndexOf(name string) int {
	i, ok := s.index[name]
	if !ok {
		return -1
	}
	return i
}

// Size returns the number of lattice points in the box, saturating at
// math.MaxInt64 on overflow.
func (s *Space) Size() int64 {
	const maxInt64 = int64(^uint64(0) >> 1)
	total := int64(1)
	for _, p := range s.params {
		l := p.Levels()
		if total > maxInt64/l {
			return maxInt64
		}
		total *= l
	}
	return total
}

// LogSize returns log10 of the bounding-box size, computed without
// overflow. The paper reports search-space sizes as orders of
// magnitude (O(10^100) for the large PETSc decomposition space).
func (s *Space) LogSize() float64 {
	var sum float64
	for _, p := range s.params {
		sum += log10int(p.Levels())
	}
	return sum
}

func log10int(n int64) float64 {
	return math.Log10(float64(n))
}

// Valid reports whether the point is inside the box.
func (s *Space) Valid(pt Point) bool { return s.Check(pt) == nil }

// Clamp returns a copy of the point with every coordinate clamped into
// the box.
func (s *Space) Clamp(pt Point) Point {
	out := pt.Clone()
	for i := range out {
		if out[i] < 0 {
			out[i] = 0
		}
		if max := s.Levels(i) - 1; out[i] > max {
			out[i] = max
		}
	}
	return out
}

// Nearest snaps a vector of continuous lattice coordinates to the
// nearest in-box lattice point. This is the paper's adaptation of the
// simplex method to discrete spaces: "using the resulting values from
// the nearest integer point in the space to approximate the
// performance at the selected point in the continuous space".
func (s *Space) Nearest(coords []float64) Point {
	return s.NearestInto(make(Point, len(s.params)), coords)
}

// NearestInto is Nearest writing into pt, which has Dims coordinates,
// and returning it: a caller that only compares snapped points reuses
// one.
func (s *Space) NearestInto(pt Point, coords []float64) Point {
	for i := range pt {
		v := int64(floorHalfUp(coords[i]))
		if v < 0 {
			v = 0
		}
		if max := s.Levels(i) - 1; v > max {
			v = max
		}
		pt[i] = v
	}
	return pt
}

func floorHalfUp(x float64) float64 {
	f := float64(int64(x))
	if x < 0 && f != x {
		f--
	}
	if x-f >= 0.5 {
		f++
	}
	return f
}

// Center returns the lattice point at the middle of every dimension.
func (s *Space) Center() Point {
	pt := make(Point, len(s.params))
	for i := range s.params {
		pt[i] = (s.Levels(i) - 1) / 2
	}
	return pt
}

// Random returns a uniformly random lattice point drawn from rng.
func (s *Space) Random(rng *rand.Rand) Point {
	pt := make(Point, len(s.params))
	for i := range s.params {
		pt[i] = rng.Int63n(s.Levels(i))
	}
	return pt
}

// Check reports why the point does not decode, nil when it does. It
// allocates only the error.
func (s *Space) Check(pt Point) error {
	if len(pt) != len(s.params) {
		return fmt.Errorf("space: point has %d coordinates, space has %d", len(pt), len(s.params))
	}
	for i, v := range pt {
		if v < 0 || v >= s.Levels(i) {
			return fmt.Errorf("space: coordinate %d (=%d) out of range for %q", i, v, s.params[i].Name)
		}
	}
	return nil
}

// Decode converts a lattice point into a Config of concrete values. The
// Config keeps a copy of pt, so the caller may change pt afterwards.
func (s *Space) Decode(pt Point) (Config, error) {
	if err := s.Check(pt); err != nil {
		return Config{}, err
	}
	return Config{space: s, point: pt.Clone()}, nil
}

// DecodeShared is Decode without the copy: the Config reads pt itself,
// so the caller must never write pt again. The tuning window decodes
// the points a strategy hands out this way, because a strategy never
// writes a point it has handed out (search.AsyncStrategy).
func (s *Space) DecodeShared(pt Point) (Config, error) {
	if err := s.Check(pt); err != nil {
		return Config{}, err
	}
	return Config{space: s, point: pt}, nil
}

// MustDecode is Decode, panicking on error.
func (s *Space) MustDecode(pt Point) Config {
	cfg, err := s.Decode(pt)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Encode converts named concrete values (rendered as strings) into a
// lattice point. Every parameter must be present in values.
func (s *Space) Encode(values map[string]string) (Point, error) {
	pt := make(Point, len(s.params))
	for i, p := range s.params {
		v, ok := values[p.Name]
		if !ok {
			return nil, fmt.Errorf("space: missing value for parameter %q", p.Name)
		}
		lvl, err := p.LevelOfString(v)
		if err != nil {
			return nil, err
		}
		pt[i] = lvl
	}
	return pt, nil
}

// Config is a decoded point: a read-only view of concrete parameter
// values, the form consumed by applications.
type Config struct {
	space *Space
	point Point
}

// Point returns the lattice point underlying the config.
func (c Config) Point() Point { return c.point.Clone() }

// Int returns the named parameter's concrete integer value.
// It panics if the parameter is unknown or not an Int parameter;
// configs are decoded from validated points, so this indicates a
// programming error in the caller.
func (c Config) Int(name string) int64 {
	i := c.space.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("space: config has no parameter %q", name))
	}
	return c.space.params[i].IntAt(c.point[i])
}

// String returns the named parameter's concrete value rendered as a
// string.
func (c Config) String(name string) string {
	i := c.space.IndexOf(name)
	if i < 0 {
		panic(fmt.Sprintf("space: config has no parameter %q", name))
	}
	return c.space.params[i].StringAt(c.point[i])
}

// Lookup is String without the panic: ok is false when the config has
// no parameter of that name. It is for code handed a configuration it
// did not build the space of — a predictor resolved by application
// name — where an unrelated space must read as "not mine", not crash.
func (c Config) Lookup(name string) (string, bool) {
	i := c.space.IndexOf(name)
	if i < 0 {
		return "", false
	}
	return c.space.params[i].StringAt(c.point[i]), true
}

// LookupInt is Lookup for a value the caller needs as an integer: an
// Int parameter's value, or an Enum value that parses as a decimal
// integer (a client may declare negrid as the enum 8, 16, 32). ok is
// false for a missing parameter and for any other Enum value.
func (c Config) LookupInt(name string) (int, bool) {
	i := c.space.IndexOf(name)
	if i < 0 {
		return 0, false
	}
	p := c.space.params[i]
	if p.Kind == Int {
		return int(p.IntAt(c.point[i])), true
	}
	n, err := strconv.Atoi(p.Values[c.point[i]])
	return n, err == nil
}

// Map renders the whole config as a new name→string map.
func (c Config) Map() map[string]string { return c.MapInto(nil) }

// MapInto renders the whole config into out, which it empties first,
// and returns it; a nil out gets a new map. A writer that encodes one
// configuration after another reuses one map this way.
func (c Config) MapInto(out map[string]string) map[string]string {
	if out == nil {
		out = make(map[string]string, len(c.space.params))
	}
	clear(out)
	for i, p := range c.space.params {
		out[p.Name] = p.StringAt(c.point[i])
	}
	return out
}

// Format renders the config as "name=value name=value ..." with
// parameters in space order. Handy for logs and experiment tables.
func (c Config) Format() string {
	var b strings.Builder
	for i, p := range c.space.params {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p.Name)
		b.WriteByte('=')
		b.WriteString(p.StringAt(c.point[i]))
	}
	return b.String()
}

// Names returns the parameter names in space order.
func (s *Space) Names() []string {
	out := make([]string, len(s.params))
	for i, p := range s.params {
		out[i] = p.Name
	}
	return out
}

// AxisPoints returns the points obtained from pt by setting dimension
// dim to every one of its levels (including the current one). Used by
// exhaustive per-parameter sweeps.
func (s *Space) AxisPoints(pt Point, dim int) []Point {
	p := s.params[dim]
	out := make([]Point, 0, p.Levels())
	for lvl := int64(0); lvl < p.Levels(); lvl++ {
		n := pt.Clone()
		n[dim] = lvl
		out = append(out, n)
	}
	return out
}

// Lattice is a regular sub-lattice of a space's box: dimension d takes
// counts[d] of its levels, evenly spread (the middle one alone, or both
// ends and evenly spaced levels between). Its points are numbered
// 0..Size()-1 in odometer order, the last dimension turning fastest,
// and At decodes a number, so a walk over a lattice holds one number,
// not its points.
type Lattice struct {
	sp     *Space
	counts []int64
	size   int64 // saturating at math.MaxInt64, like Space.Size
}

// GridLattice is a lattice of at most budget points that
// systematically samples the box: the paper's "systematic sampling
// (i.e., using configurations that are evenly distributed in the whole
// search space)" of Fig. 6. Starting from one level per dimension, it
// repeatedly adds a level to the dimension with the most levels whose
// increment keeps the product within budget.
func (s *Space) GridLattice(budget int) Lattice {
	counts := make([]int64, len(s.params))
	if budget <= 0 {
		return Lattice{sp: s, counts: counts}
	}
	product := int64(1)
	for i := range counts {
		counts[i] = 1
	}
	for {
		best := -1
		var bestLevels int64
		for i, p := range s.params {
			if counts[i] >= p.Levels() || product/counts[i]*(counts[i]+1) > int64(budget) {
				continue
			}
			if best == -1 || p.Levels() > bestLevels {
				best, bestLevels = i, p.Levels()
			}
		}
		if best == -1 {
			return Lattice{sp: s, counts: counts, size: product}
		}
		product = product / counts[best] * (counts[best] + 1)
		counts[best]++
	}
}

// FullLattice is every point of the box.
func (s *Space) FullLattice() Lattice {
	counts := make([]int64, len(s.params))
	for i, p := range s.params {
		counts[i] = p.Levels()
	}
	return Lattice{sp: s, counts: counts, size: s.Size()}
}

// Size is the number of lattice points.
func (l Lattice) Size() int64 { return l.size }

// At writes the point numbered k, in [0, Size()), into pt, which has
// Dims coordinates.
func (l Lattice) At(k int64, pt Point) {
	for d := len(l.counts) - 1; d >= 0; d-- {
		pt[d] = spreadLevel(l.sp.params[d].Levels(), l.counts[d], k%l.counts[d])
		k /= l.counts[d]
	}
}

// spreadLevel is the i-th of n distinct levels picked evenly from
// [0, total), including 0 and total-1 when n > 1. The picks are
// distinct because consecutive ones lie (total-1)/(n-1) >= 1 apart.
// The product i*(total-1) is taken in 128 bits: it overflows an int64
// on a wide parameter, while the quotient is at most total-1.
func spreadLevel(total, n, i int64) int64 {
	switch {
	case n >= total:
		return i
	case n == 1:
		return (total - 1) / 2
	}
	hi, lo := bits.Mul64(uint64(i), uint64(total-1))
	q, _ := bits.Div64(hi, lo, uint64(n-1))
	return int64(q)
}
