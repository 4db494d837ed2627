package search

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// replayDraws draws n values from r through every *rand.Rand method
// the search and space packages call, plus Uint64, in rotation.
func replayDraws(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 6 {
		case 0:
			out[i] = uint64(r.Intn(2)) // PRO's spread mask
		case 1:
			out[i] = math.Float64bits(r.Float64()) // PRO's spread and jitter
		case 2:
			out[i] = uint64(r.Int63n(41)) // Space.Random's level
		case 3:
			out[i] = uint64(r.Int63n(1<<40 + 3))
		case 4:
			out[i] = uint64(r.Intn(1000))
		default:
			out[i] = r.Uint64()
		}
	}
	return out
}

func checkReplay(seed int64, n int) error {
	want := replayDraws(rand.New(rand.NewSource(seed)), n)
	var r seededRand
	r.reset(seed)
	got := replayDraws(&r.Rand, n)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("seed %d: draw %d = %#x, rand.NewSource gives %#x", seed, i, got[i], want[i])
		}
	}
	return nil
}

// replaySeeds covers how math/rand reduces a seed: both signs and both
// extremes, each multiple of 2³¹−1 (which seeds as 89482311), and the
// largest and smallest seeds that reduce to themselves.
var replaySeeds = []int64{
	0, 1, -1, 11, 1 << 40, math.MaxInt64, math.MinInt64,
	1<<31 - 1, 1<<31 - 2, -(1<<31 - 1), 2 * (1<<31 - 1), 89482311,
}

// TestReplaySourceMatchesNewSource: a replaySource serves
// rand.NewSource(seed)'s stream value for value, through the draws it
// computes from the seed and past them into the private generator.
func TestReplaySourceMatchesNewSource(t *testing.T) {
	for _, seed := range replaySeeds {
		if err := checkReplay(seed, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	// Reseeding through the Rand restarts the stream at the new seed.
	var r seededRand
	r.reset(5)
	replayDraws(&r.Rand, 300)
	r.Seed(7)
	if got, want := replayDraws(&r.Rand, 300), replayDraws(rand.New(rand.NewSource(7)), 300); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Error("after Seed(7) the stream is not rand.NewSource(7)'s")
	}
}

// TestReplaySourceConcurrentStrategies runs many strategies' sources
// at once, sharing only the package's read-only tables; the race
// detector checks the sharing and every stream must still be its
// seed's.
func TestReplaySourceConcurrentStrategies(t *testing.T) {
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				seed := replaySeeds[(w+i)%len(replaySeeds)] - int64(i)
				if err := checkReplay(seed, 40+17*i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
