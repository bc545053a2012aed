package experiments

import (
	"context"
	"testing"

	"hpcsched/internal/faults"
)

// The spec expansion is the API's load-bearing contract: seed-major,
// mode-minor, with Seed/Replicas/Seeds precedence and the Advanced escape
// hatch.
func TestScenarioSpecExpansion(t *testing.T) {
	spec := ScenarioSpec{
		Workload: "metbench",
		Modes:    []Mode{ModeBaseline, ModeUniform},
		Seeds:    []uint64{7, 9},
	}
	cfgs := spec.Configs()
	if len(cfgs) != 4 {
		t.Fatalf("grid size %d", len(cfgs))
	}
	want := []struct {
		seed uint64
		mode Mode
	}{{7, ModeBaseline}, {7, ModeUniform}, {9, ModeBaseline}, {9, ModeUniform}}
	for i, w := range want {
		if cfgs[i].Seed != w.seed || cfgs[i].Mode != w.mode {
			t.Fatalf("cfg %d = (%d, %v), want (%d, %v)",
				i, cfgs[i].Seed, cfgs[i].Mode, w.seed, w.mode)
		}
	}

	// Replicas derives seeds from Seed; explicit Seeds overrides it.
	r := ScenarioSpec{Workload: "metbench", Seed: 42, Replicas: 3}
	if got := r.ReplicaSeeds(); len(got) != 3 || got[0] == got[1] {
		t.Fatalf("replica seeds = %v", got)
	}
	one := ScenarioSpec{Workload: "metbench", Seed: 5}
	if got := one.ReplicaSeeds(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("default seeds = %v", got)
	}

	// Advanced verbatim: Workload empty → the config passes through, with
	// replication applied on top.
	adv := Config{Workload: "siesta", Mode: ModeHybrid, Seed: 11}
	v := ScenarioSpec{Advanced: &adv, Seeds: []uint64{1, 2}}
	cfgs = v.Configs()
	if len(cfgs) != 2 || cfgs[0].Workload != "siesta" || cfgs[0].Mode != ModeHybrid ||
		cfgs[0].Seed != 1 || cfgs[1].Seed != 2 {
		t.Fatalf("advanced grid = %+v", cfgs)
	}
}

func TestExecOptionsHardenedSelection(t *testing.T) {
	if (ExecOptions{}).Hardened() {
		t.Error("zero options hardened")
	}
	for _, o := range []ExecOptions{
		{Timeout: 1}, {MaxRetries: 1}, {StallTimeout: 1}, {Harden: true},
	} {
		if !o.Hardened() {
			t.Errorf("%+v not hardened", o)
		}
	}
	if (ExecOptions{Workers: 8}).Hardened() {
		t.Error("worker count alone selected the hardened pool")
	}
}

// RunScenario must reproduce the legacy serial table byte-for-byte: the
// redesigned entry point is a pure re-expression of the old one.
func TestRunScenarioMatchesLegacyTable(t *testing.T) {
	legacy := RunTable("metbench", 42)
	sr, err := RunScenario(context.Background(), ScenarioSpec{
		Workload: "metbench", Seed: 42, Modes: TableModes("metbench"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := TableResult{Workload: "metbench", Rows: sr.Results}
	if got, want := tr.Format(), legacy.Format(); got != want {
		t.Fatalf("scenario table differs from legacy:\n%s\n--- vs ---\n%s", got, want)
	}
}

// A hetero fault spec applies persistent per-context speed scales: the
// timeline reports them at t=0 and the run slows down accordingly.
func TestHeteroFaultPersistentSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	clean := Run(Config{Workload: "metbench", Mode: ModeBaseline, Seed: 42})
	slow := Run(Config{
		Workload: "metbench", Mode: ModeBaseline, Seed: 42,
		Faults: faults.MustParse("hetero:scales=1/0.5/1/0.5"),
	})
	if slow.FaultTimeline == "" {
		t.Fatal("no fault timeline")
	}
	if slow.ExecTime <= clean.ExecTime {
		t.Fatalf("hetero scales did not slow the run: %v vs %v",
			slow.ExecTime, clean.ExecTime)
	}
}

// SweepScenarios flattens every spec onto one pool and slices the results
// back per scenario, preserving each scenario's own grid.
func TestSweepScenariosSlicesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload runs")
	}
	specs := []ScenarioSpec{
		{Workload: "metbench", Seed: 42, Modes: []Mode{ModeBaseline, ModeUniform}},
		{Workload: "metbench", Seed: 43, Mode: ModeStatic},
	}
	out, err := SweepScenarios(context.Background(), specs, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0].Results) != 2 || len(out[1].Results) != 1 {
		t.Fatalf("result shape: %d/%d/%d", len(out), len(out[0].Results), len(out[1].Results))
	}
	// Same cells run standalone must match the sweep exactly.
	solo, err := RunScenario(context.Background(), specs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range solo.Results {
		if solo.Results[i].ExecTime != out[0].Results[i].ExecTime {
			t.Fatalf("sweep cell %d diverged: %v vs %v",
				i, out[0].Results[i].ExecTime, solo.Results[i].ExecTime)
		}
	}
	for i, r := range out[1].Results {
		if !out[1].OK[i] || r.Config.Mode != ModeStatic || r.Config.Seed != 43 {
			t.Fatalf("second scenario row %d = %+v", i, r.Config)
		}
	}
}
