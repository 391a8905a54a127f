package chaos

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// seedCount honors CHAOS_SEEDS so `make chaos-smoke` can soak many more
// seeds than a regular test run.
func seedCount(t *testing.T) int {
	t.Helper()
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("CHAOS_SEEDS=%q: want a positive integer", v)
		}
		return n
	}
	return 5
}

// configFor spreads the soak across the robustness feature matrix: every
// third seed arms the sweep budget (checkpoint/resume under fire), every
// fourth the per-VM budget, odd seeds run the parallel pipeline, and the
// seed picks the engine's shard size from {0 (one shard), 1, 4}.
func configFor(i int) Config {
	cfg := Config{Seed: 1000 + int64(i)*17}
	if i%3 == 0 {
		cfg.SweepBudget = 40 * time.Millisecond
	}
	if i%4 == 0 {
		cfg.VMBudget = 8 * time.Millisecond
	}
	cfg.Parallel = i%2 == 1
	cfg.ShardSize = []int{0, 1, 4}[cfg.Seed%3]
	return cfg
}

// TestChaosSoak runs the seeded soak matrix and asserts the three
// invariants on every seed: fault noise never fabricates an ALTERED
// verdict, health converges once the plan quiesces, and the same seed
// replays to byte-identical reports.
func TestChaosSoak(t *testing.T) {
	n := seedCount(t)
	for i := 0; i < n; i++ {
		cfg := configFor(i)
		t.Run(strconv.FormatInt(cfg.Seed, 10), func(t *testing.T) {
			first, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.AlteredAlerts > 0 {
				t.Errorf("fault noise produced %d ALTERED alert(s): torn/corrupt data misread as infection", first.AlteredAlerts)
			}
			if !first.Converged {
				last := first.Reports[len(first.Reports)-1]
				t.Errorf("pool never converged after quiesce; final sweep %d: quarantined=%v skipped=%v breaker=%v",
					last.Sweep, last.Quarantined, last.Skipped, last.BreakerOpen)
			}
			if len(first.Reports) == 0 {
				t.Fatal("soak produced no sweep reports")
			}
			if cfg.SweepBudget > 0 && first.PartialSweeps > 0 && first.Resumes == 0 {
				t.Errorf("budget cut %d sweep(s) but no sweep resumed the checkpoint", first.PartialSweeps)
			}

			second, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first.Fingerprint != second.Fingerprint {
				t.Errorf("seed %d is not deterministic: report fingerprints diverge (%d vs %d bytes)",
					cfg.Seed, len(first.Fingerprint), len(second.Fingerprint))
			}
		})
	}
}

// TestChaosSoakNoGoroutineLeak: the soak (including parallel-pipeline
// seeds) leaves no workers behind.
func TestChaosSoakNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, i := range []int{0, 1, 3} { // sequential, parallel, budgeted
		if _, err := Run(configFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	var after int
	for attempt := 0; attempt < 50; attempt++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Errorf("goroutines leaked across soak runs: %d before, %d after", before, after)
	}
}
