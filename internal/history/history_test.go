package history

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"harmony/internal/space"
)

func tmpStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tuning.json")
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, path
}

func TestStoreReleasesMutex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "d")
	s, err := Open(filepath.Join(dir, "tuning.json"))
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{App: "app", Machine: "m", Best: map[string]string{"x": "3", "y": "4"}, BestValue: 1}
	for _, step := range []struct {
		name string
		call func()
	}{
		{"Add", func() {
			if err := s.Add(rec); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}},
		{"Len", func() { s.Len() }},
		{"Records", func() { s.Records() }},
		{"SeedsFor", func() { s.SeedsFor("app", "m", cacheSpace(), 1) }},
		{"Add (failing flush)", func() {
			blockDir(t, dir)
			if err := s.Add(rec); err == nil {
				t.Fatal("Add under a file succeeded")
			}
		}},
	} {
		step.call()
		requireUnlocked(&s.mu, step.name)
	}
}

// TestStoreAddWaitsForMutex pins, without the race detector, that Add
// appends and persists under the store's mutex: while the test holds
// it, Add must neither change the records nor return, and once it is
// released Add completes.
func TestStoreAddWaitsForMutex(t *testing.T) {
	s, _ := tmpStore(t)
	s.mu.Lock()
	done := make(chan error)
	go func() { done <- s.Add(Record{App: "app", Machine: "m", BestValue: 1}) }()
	time.Sleep(20 * time.Millisecond) // ample for an unguarded Add to append and flush
	select {
	case <-done:
		t.Fatal("Add returned while the test held the store's mutex")
	default:
	}
	if len(s.records) != 0 {
		t.Fatal("Add changed the records while the test held the store's mutex")
	}
	s.mu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("%d records after the released Add, want 1", s.Len())
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	s, _ := tmpStore(t)
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func TestAddPersistsAcrossOpens(t *testing.T) {
	s, path := tmpStore(t)
	rec := Record{App: "gs2", Machine: "seaborg-8x16",
		Best: map[string]string{"negrid": "8", "ntheta": "22"}, BestValue: 18.4, Runs: 8}
	if err := s.Add(rec); err != nil {
		t.Fatalf("Add: %v", err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recs := s2.Records()
	if len(recs) != 1 || recs[0].App != "gs2" || recs[0].BestValue != 18.4 {
		t.Errorf("reloaded records = %+v", recs)
	}
}

func TestOpenCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("expected error for corrupt store")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d, want 0", s.Len())
	}
}

func seedSpace() *space.Space {
	return space.MustNew(
		space.IntParam("negrid", 4, 32, 2),
		space.IntParam("ntheta", 10, 32, 2),
	)
}

func TestSeedsForDecodesAndRanks(t *testing.T) {
	s, _ := tmpStore(t)
	sp := seedSpace()
	add := func(app, machine string, negrid, ntheta string, v float64) {
		t.Helper()
		if err := s.Add(Record{App: app, Machine: machine,
			Best: map[string]string{"negrid": negrid, "ntheta": ntheta}, BestValue: v}); err != nil {
			t.Fatal(err)
		}
	}
	add("gs2", "linux-64x2", "8", "22", 20)
	add("gs2", "seaborg-8x16", "10", "20", 30)
	add("gs2", "seaborg-8x16", "12", "24", 25)
	add("pop", "seaborg-8x16", "8", "22", 1) // different app: ignored
	add("gs2", "linux-64x2", "9", "22", 5)   // off-lattice negrid: skipped

	seeds := s.SeedsFor("gs2", "seaborg-8x16", sp, 10)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3: %v", len(seeds), seeds)
	}
	// Same-machine records first, ordered by value: (12,24)@25 then
	// (10,20)@30, then the other machine's (8,22)@20.
	wantFirst, _ := sp.Encode(map[string]string{"negrid": "12", "ntheta": "24"})
	if !seeds[0].Equal(wantFirst) {
		t.Errorf("first seed %v, want %v", seeds[0], wantFirst)
	}
}

func TestSeedsForLimitAndDedup(t *testing.T) {
	s, _ := tmpStore(t)
	sp := seedSpace()
	for i := 0; i < 5; i++ {
		if err := s.Add(Record{App: "gs2", Machine: "m",
			Best: map[string]string{"negrid": "8", "ntheta": "22"}, BestValue: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seeds := s.SeedsFor("gs2", "m", sp, 10)
	if len(seeds) != 1 {
		t.Errorf("got %d seeds, want 1 after dedup", len(seeds))
	}
	if err := s.Add(Record{App: "gs2", Machine: "m",
		Best: map[string]string{"negrid": "10", "ntheta": "24"}, BestValue: 0}); err != nil {
		t.Fatal(err)
	}
	seeds = s.SeedsFor("gs2", "m", sp, 1)
	if len(seeds) != 1 {
		t.Errorf("got %d seeds, want limit 1", len(seeds))
	}
}

func TestSeedsForMissingParameter(t *testing.T) {
	s, _ := tmpStore(t)
	sp := seedSpace()
	if err := s.Add(Record{App: "gs2", Machine: "m",
		Best: map[string]string{"negrid": "8"}, BestValue: 1}); err != nil {
		t.Fatal(err)
	}
	if seeds := s.SeedsFor("gs2", "m", sp, 10); len(seeds) != 0 {
		t.Errorf("incomplete record produced seeds %v", seeds)
	}
}

func TestConcurrentAdd(t *testing.T) {
	s, _ := tmpStore(t)
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		go func(i int) {
			done <- s.Add(Record{App: "app", Machine: "m", BestValue: float64(i),
				Best: map[string]string{}})
		}(i)
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if s.Len() != 10 {
		t.Errorf("Len = %d, want 10", s.Len())
	}
}
