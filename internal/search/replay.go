package search

import (
	"math/rand"
	"reflect"
)

// math/rand's source is an additive lagged Fibonacci generator over a
// register of rngLen slots. Seeding fills slot i from three steps of
// the Lehmer sequence x ← 48271·x mod (2³¹−1), started at the reduced
// seed and run 20 steps ahead first, XORed with a fixed table; draw k
// then writes slot[rngLen−rngTap−k] + slot[rngLen−k] back into the
// first of them. No draw up to rngTap reads a slot an earlier draw has
// written, so each of them is a function of the seed alone.
const (
	rngLen  = 607
	rngTap  = 273
	lehmerM = 1<<31 - 1
)

// lehmer[n] is 48271ⁿ mod (2³¹−1), so the Lehmer sequence's n-th step
// from any start is one multiplication, for every step seeding takes.
var lehmer = func() (t [21 + 3*rngLen]uint64) {
	t[0] = 1
	for n := 1; n < len(t); n++ {
		t[n] = t[n-1] * 48271 % lehmerM
	}
	return t
}()

// rngCooked is math/rand's table of that name: seed 1's register, read
// from a generator of its own, with seed 1's Lehmer part XORed out.
var rngCooked = func() (t [rngLen]int64) {
	vec := reflect.ValueOf(rand.NewSource(1)).Elem().FieldByName("vec")
	for i := range t {
		t[i] = vec.Index(i).Int() ^ lehmerSlot(1, i)
	}
	return t
}()

// lehmerSlot is the Lehmer part of slot i of the register seeded at x0.
func lehmerSlot(x0 uint64, i int) int64 {
	n := 21 + 3*i
	a, b, c := lehmer[n]*x0%lehmerM, lehmer[n+1]*x0%lehmerM, lehmer[n+2]*x0%lehmerM
	return int64(a<<40 ^ b<<20 ^ c)
}

// replaySource is a rand.Source64 that serves exactly
// rand.NewSource(seed)'s stream without seeding that source's 4.9 KB
// register: the first rngTap draws are computed from the seed in
// closed form, six multiplications each, and only a strategy that
// draws past them takes a private generator, seeded and advanced past
// them. Int63 is Uint64 with the top bit cleared, as it is in
// math/rand, so any mix of the two calls sees the one stream.
type replaySource struct {
	x0  uint64        // the seed reduced as math/rand reduces it, in [1, 2³¹−1)
	n   int           // draws served
	own rand.Source64 // the private generator, past draw rngTap
}

func (s *replaySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = replaySource{x0: uint64(seed)}
}

func (s *replaySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *replaySource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.slot(rngLen-rngTap-s.n) + s.slot(rngLen-s.n))
	}
	if s.own == nil {
		s.own = rand.NewSource(int64(s.x0)).(rand.Source64)
		for range rngTap {
			s.own.Uint64()
		}
	}
	return s.own.Uint64()
}

// slot is slot i of the register as seeding leaves it.
func (s *replaySource) slot(i int) int64 { return lehmerSlot(s.x0, i) ^ rngCooked[i] }

// seededRand is a rand.Rand over its own replaySource, held by value
// in the strategy that draws from it, so the two cost no allocation
// of their own. The Rand points into the struct: it must not be
// copied once reset.
type seededRand struct {
	rand.Rand
	src replaySource
}

func (r *seededRand) reset(seed int64) {
	r.src.Seed(seed)
	r.Rand = *rand.New(&r.src) // rand.New inlines, so its Rand stays on the stack
}
