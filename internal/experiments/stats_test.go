package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestRunTableStats(t *testing.T) {
	sr, err := RunScenario(context.Background(), ScenarioSpec{
		Workload: "metbench", Seeds: DefaultSeeds(3), Modes: TableModes("metbench"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := TableStatsOf(sr)
	if len(ts.Stats) != 4 {
		t.Fatalf("stats rows = %d", len(ts.Stats))
	}
	for _, s := range ts.Stats {
		if s.Runs != 3 {
			t.Errorf("%v runs = %d", s.Mode, s.Runs)
		}
		if s.MeanExecS <= 0 {
			t.Errorf("%v mean exec %v", s.Mode, s.MeanExecS)
		}
	}
	// The headline improvement is robust across seeds: uniform mean
	// within the validated band, with a small spread.
	for _, s := range ts.Stats {
		if s.Mode == ModeUniform {
			if s.MeanImp < 9 || s.MeanImp > 18 {
				t.Errorf("uniform mean improvement = %v", s.MeanImp)
			}
			if s.StdImp > 4 {
				t.Errorf("uniform improvement spread = %v, want small", s.StdImp)
			}
		}
	}
	out := ts.Format()
	if !strings.Contains(out, "±") || !strings.Contains(out, "3 seeds") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

// A Replicas-based spec must aggregate just like an explicit-Seeds one:
// statsSeeds recovers the derived seed axis from an executed scenario.
func TestTableStatsOfReplicasSpec(t *testing.T) {
	sr, err := RunScenario(context.Background(), ScenarioSpec{
		Workload: "metbench", Seed: 42, Replicas: 2, Modes: TableModes("metbench"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := TableStatsOf(sr)
	if len(ts.Seeds) != 2 || len(ts.Stats) == 0 || ts.Stats[0].Runs != 2 {
		t.Fatalf("stats = %+v", ts)
	}
	if !strings.Contains(ts.Format(), "over 2 seeds") {
		t.Fatalf("format: %s", ts.Format())
	}
	// A never-run result still aggregates to a zero-row table (the legacy
	// empty-seeds contract).
	empty := TableStatsOf(ScenarioResult{Spec: ScenarioSpec{
		Workload: "metbench", Seed: 42, Modes: TableModes("metbench"),
	}})
	if len(empty.Seeds) != 0 || len(empty.Stats) != len(TableModes("metbench")) {
		t.Fatalf("empty stats = %+v", empty)
	}
	for _, s := range empty.Stats {
		if s.Runs != 0 {
			t.Fatalf("empty stats ran: %+v", s)
		}
	}
}

func TestDefaultSeeds(t *testing.T) {
	s := DefaultSeeds(5)
	if len(s) != 5 || s[0] != 42 {
		t.Fatalf("seeds = %v", s)
	}
	seen := map[uint64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate seed")
		}
		seen[v] = true
	}
}
