package search

import (
	"math/rand"
	"sync"
)

// replayLen is how many values a replaySource serves from its buffer
// before it takes a generator of its own.
const replayLen = 128

// generators holds math/rand generators between fills. A fill reseeds
// the generator it takes, so the seed and position a generator comes
// back to the pool with never reach a stream.
var generators = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// replaySource is a rand.Source64 that serves exactly
// rand.NewSource(seed)'s stream without owning that source's 4.9 KB
// state. The first draw seeds a pooled generator, copies its first
// replayLen values and hands it back at once; only a strategy that
// draws past them takes a private generator, seeded and advanced past
// the buffer. Int63 is Uint64 with the top bit cleared, as it is in
// math/rand, so any mix of the two calls sees the one stream.
type replaySource struct {
	seed int64
	n    int // values served from buf
	buf  [replayLen]uint64
	own  rand.Source64 // the private generator, once buf is spent
}

func (s *replaySource) Seed(seed int64) { s.seed, s.n, s.own = seed, 0, nil }

func (s *replaySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *replaySource) Uint64() uint64 {
	switch {
	case s.own != nil:
		return s.own.Uint64()
	case s.n == replayLen:
		s.own = rand.NewSource(s.seed).(rand.Source64)
		for range replayLen {
			s.own.Uint64()
		}
		return s.own.Uint64()
	case s.n == 0:
		g := generators.Get().(rand.Source64)
		g.Seed(s.seed)
		for i := range s.buf {
			s.buf[i] = g.Uint64()
		}
		generators.Put(g)
	}
	s.n++
	return s.buf[s.n-1]
}

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
