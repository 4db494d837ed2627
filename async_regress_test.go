// Async-session regression pins: the engine's contract is that the
// issue/commit trace — and therefore the whole Result — is a pure
// function of the strategy and the window depth, never of the worker
// count. Each campaign below runs under core.Tune with Options.Async
// at workers 1, 4 and 8 and every fingerprint must be bit-identical to
// the one golden recorded for the campaign. The simplex campaign goes
// through the AsAsync round-buffering adapter, the ensemble campaign
// through its native pipelined implementation, so both strategy views
// are pinned.
//
// Regenerate (only when a change is *meant* to alter results) with:
//
//	HARMONY_PRINT_FINGERPRINTS=1 go test -run TestAsyncCampaignFingerprints -v .
package harmony_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"harmony/internal/paper"
	"harmony/internal/search"
	"harmony/internal/space"
)

// asyncGoldens holds one fingerprint per campaign; all worker counts
// must reproduce it exactly.
var asyncGoldens = map[string]string{
	"table3-async-simplex":  "runs=35 proposals=47 failures=0 best=0,0,62 bestValue=403be612cdd61694 bestAtRun=6 cost=40990b215d8b66ce trials=467f90967b61023f",
	"table3-async-ensemble": "runs=35 proposals=38 failures=0 best=10,1,54 bestValue=403ff12c29dc95cf bestAtRun=18 cost=40b5997a68011e3c trials=71999ecca5534aee",
}

// asyncCampaigns builds the table3-gs2-resolution campaign of
// campaign_regress_test.go under Async, by its simplex and by the
// ensemble.
func asyncCampaigns() map[string]func() paper.Campaign {
	table3 := func() paper.Campaign {
		c := campaigns()["table3-gs2-resolution"]()
		c.Options.Async = true
		return c
	}
	return map[string]func() paper.Campaign{
		"table3-async-simplex": table3,
		"table3-async-ensemble": func() paper.Campaign {
			c := table3()
			c.Strategy = func(sp *space.Space, _ space.Point) search.Strategy {
				return search.NewEnsemble(sp, search.EnsembleOptions{Seed: 11, Budget: 35})
			}
			return c
		},
	}
}

func TestAsyncCampaignFingerprints(t *testing.T) {
	printMode := os.Getenv("HARMONY_PRINT_FINGERPRINTS") != ""
	for name, build := range asyncCampaigns() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := build()
			prints := make(map[int]string, 3)
			for _, workers := range []int{1, 4, 8} {
				c.Options.Workers = workers
				res, err := c.Tune(context.Background())
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				prints[workers] = fingerprint(res)
			}
			if printMode {
				fmt.Printf("GOLDEN\t%q: %q,\n", name, prints[1])
			}
			for _, workers := range []int{4, 8} {
				if prints[workers] != prints[1] {
					t.Errorf("workers=%d diverged from workers=1:\n got %s\nwant %s",
						workers, prints[workers], prints[1])
				}
			}
			if printMode {
				return
			}
			want, ok := asyncGoldens[name]
			if !ok {
				t.Fatalf("no golden fingerprint recorded for %s; got %s", name, prints[1])
			}
			if prints[1] != want {
				t.Errorf("campaign %s diverged from the recorded Async session:\n got %s\nwant %s", name, prints[1], want)
			}
		})
	}
}

// TestAsyncSimplexMatchesRoundEngine pins the strongest form of the
// accounting-parity claim: the same simplex campaign produces a
// bit-identical Result with Options.Async off and on, because the
// AsAsync adapter buffers exactly one round and commits it in
// proposal order. If this ever diverges, the adapter changed
// observable semantics, not just scheduling.
func TestAsyncSimplexMatchesRoundEngine(t *testing.T) {
	if got, want := asyncGoldens["table3-async-simplex"], campaignGoldens["table3-gs2-resolution"]; got != want {
		t.Errorf("async simplex golden diverged from the round-at-a-time golden:\n got %s\nwant %s", got, want)
	}
}
