package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestRunBatchOrderedAndDeterministic checks the headline contract on
// real simulations: the same configs produce identical, submission-
// ordered results at any worker count.
func TestRunBatchOrderedAndDeterministic(t *testing.T) {
	cfgs := tableGrid("metbench", DefaultSeeds(2))
	var want []Result
	for _, w := range []int{1, 4} {
		results, _, _, err := RunConfigs(context.Background(), cfgs, ExecOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, r := range results {
			if r.Config.Mode != cfgs[i].Mode || r.Config.Seed != cfgs[i].Seed {
				t.Fatalf("workers=%d: result %d is for %v/seed %d, want %v/seed %d",
					w, i, r.Config.Mode, r.Config.Seed, cfgs[i].Mode, cfgs[i].Seed)
			}
		}
		if want == nil {
			want = results
			continue
		}
		for i := range want {
			if results[i].ExecTime != want[i].ExecTime ||
				results[i].Imbalance != want[i].Imbalance {
				t.Fatalf("workers=%d: result %d differs from serial run", w, i)
			}
		}
	}
}

// TestRunTableStatsWorkerInvariant is the determinism acceptance test:
// a multi-seed table scenario must aggregate to byte-identical formatted
// stats at 1, 4 and 8 workers.
func TestRunTableStatsWorkerInvariant(t *testing.T) {
	seeds := DefaultSeeds(3)
	var want string
	var wantStats []ModeStats
	for _, w := range []int{1, 4, 8} {
		sr, err := RunScenario(context.Background(), ScenarioSpec{
			Workload: "metbench", Seeds: seeds, Modes: TableModes("metbench"),
			Exec: ExecOptions{Workers: w},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		ts := TableStatsOf(sr)
		out := ts.Format()
		if want == "" {
			want, wantStats = out, ts.Stats
			continue
		}
		if out != want {
			t.Fatalf("workers=%d: formatted aggregate differs from workers=1:\n%s\n---\n%s", w, out, want)
		}
		if !reflect.DeepEqual(ts.Stats, wantStats) {
			t.Fatalf("workers=%d: aggregate stats differ from workers=1", w)
		}
	}
}

func TestRunBatchProgressAndCancellation(t *testing.T) {
	cfgs := tableGrid("metbench", DefaultSeeds(1))
	var calls []int
	results, _, _, err := RunConfigs(context.Background(), cfgs, ExecOptions{
		Workers:  2,
		Progress: func(done, total int) { calls = append(calls, done*100+total) },
	})
	if err != nil || len(results) != len(cfgs) {
		t.Fatalf("batch: %d results, err %v", len(results), err)
	}
	for i, c := range calls {
		if c != (i+1)*100+len(cfgs) {
			t.Fatalf("progress calls = %v: not strictly increasing to total", calls)
		}
	}
	if len(calls) != len(cfgs) {
		t.Fatalf("progress calls = %d, want %d", len(calls), len(cfgs))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := RunConfigs(ctx, cfgs, ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch err = %v", err)
	}
	if _, err := RunScenario(ctx, ScenarioSpec{
		Workload: "metbench", Seeds: DefaultSeeds(2), Modes: TableModes("metbench"),
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled scenario err = %v", err)
	}
}

// tableGrid is a workload table's (seed × mode) replica grid.
func tableGrid(workload string, seeds []uint64) []Config {
	return ScenarioSpec{Workload: workload, Seeds: seeds, Modes: TableModes(workload)}.Configs()
}

func TestReplicaConfigsAndSeedsFrom(t *testing.T) {
	cfgs := tableGrid("siesta", []uint64{1, 2})
	modes := TableModes("siesta")
	if len(cfgs) != 2*len(modes) {
		t.Fatalf("grid size = %d", len(cfgs))
	}
	for s := 0; s < 2; s++ {
		for i, m := range modes {
			c := cfgs[s*len(modes)+i]
			if want := (Config{Workload: "siesta", Mode: m, Seed: uint64(s + 1)}); !reflect.DeepEqual(c, want) {
				t.Fatalf("cell (%d,%d) = %+v, want %+v", s, i, c, want)
			}
		}
	}
	if cfgs[0].Mode != ModeBaseline {
		t.Fatal("baseline must lead each seed block")
	}

	a, b := SeedsFrom(42, 3), SeedsFrom(42, 8)
	if len(a) != 3 || !reflect.DeepEqual(a, b[:3]) {
		t.Fatal("SeedsFrom prefix not stable")
	}
	if reflect.DeepEqual(a, SeedsFrom(43, 3)) {
		t.Fatal("SeedsFrom ignores base")
	}
}
