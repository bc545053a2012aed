package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hpcsched/internal/batch"
	"hpcsched/internal/faults"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/workloads"
)

// fastCfg is a shortened MetBench run (~8 simulated seconds): long enough
// for fault windows drawn in [0,5s) to land, short enough to replicate
// across worker counts.
func fastCfg(seed uint64, spec faults.Spec) Config {
	return Config{
		Workload: "metbench", Mode: ModeBaseline, Seed: seed,
		TweakMetBench: func(wc *workloads.MetBenchConfig) { wc.Iterations = 3 },
		Faults:        spec,
	}
}

const fullSpec = "slow:n=2,factor=0.5,dur=1s,by=5s;stall:dur=100ms,by=5s;" +
	"storm:dur=500ms,by=5s;mpidelay:extra=200us,dur=1s,by=5s"

// TestFaultRunsDeterministicAcrossWorkers is the fault layer's determinism
// contract: same seed and spec → byte-identical fault timeline and
// identical results at -parallel 1, 4 and GOMAXPROCS.
func TestFaultRunsDeterministicAcrossWorkers(t *testing.T) {
	spec := faults.MustParse(fullSpec)
	cfgs := make([]Config, 6)
	for i := range cfgs {
		cfgs[i] = fastCfg(uint64(100+i), spec)
	}
	ref, _, _, err := RunConfigs(context.Background(), cfgs, ExecOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ref {
		if r.FaultTimeline == "" {
			t.Fatalf("run %d has no fault timeline despite a non-empty spec", i)
		}
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		res, _, _, err := RunConfigs(context.Background(), cfgs, ExecOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			if res[i].FaultTimeline != ref[i].FaultTimeline {
				t.Fatalf("workers=%d run %d fault timeline differs:\n%s\n--- vs ---\n%s",
					workers, i, res[i].FaultTimeline, ref[i].FaultTimeline)
			}
			if res[i].ExecTime != ref[i].ExecTime {
				t.Fatalf("workers=%d run %d exec time %v != %v",
					workers, i, res[i].ExecTime, ref[i].ExecTime)
			}
		}
	}
}

// TestZeroFaultSpecIsNoOp: a zero Spec must leave the run bit-identical to
// one that never touched the fault layer (the golden tables pin the same
// property across the full paper reproduction).
func TestZeroFaultSpecIsNoOp(t *testing.T) {
	plain := Run(fastCfg(42, faults.Spec{}))
	speced := Run(Config{
		Workload: "metbench", Mode: ModeBaseline, Seed: 42,
		TweakMetBench: func(wc *workloads.MetBenchConfig) { wc.Iterations = 3 },
	})
	if plain.ExecTime != speced.ExecTime {
		t.Fatalf("zero-fault spec moved the run: %v vs %v", plain.ExecTime, speced.ExecTime)
	}
	if plain.FaultTimeline != "" {
		t.Fatalf("zero-fault run produced a timeline: %q", plain.FaultTimeline)
	}
	for i := range plain.Summaries {
		if plain.Summaries[i] != speced.Summaries[i] {
			t.Fatalf("summary %d differs: %+v vs %+v", i, plain.Summaries[i], speced.Summaries[i])
		}
	}
}

// TestFaultsDegradeExecution: an injected slowdown must cost simulated time
// — and recovery must end the window (the run still finishes).
func TestFaultsDegradeExecution(t *testing.T) {
	clean := Run(fastCfg(42, faults.Spec{}))
	hurt := Run(fastCfg(42, faults.MustParse("slow:n=4,factor=0.3,dur=2s,by=4s")))
	if hurt.ExecTime <= clean.ExecTime {
		t.Fatalf("slowdown windows did not cost time: %v vs clean %v",
			hurt.ExecTime, clean.ExecTime)
	}
	if !strings.Contains(hurt.FaultTimeline, "slow-on") ||
		!strings.Contains(hurt.FaultTimeline, "slow-off") {
		t.Fatalf("timeline missing onset/recovery:\n%s", hurt.FaultTimeline)
	}
}

// TestCoreLossMigratesAndCompletes: losing a core mid-run leaves a 2-CPU
// machine that still finishes the workload, with the migrations on record.
func TestCoreLossMigratesAndCompletes(t *testing.T) {
	spec := faults.Spec{CoreLoss: []faults.CoreLossSpec{{Count: 1, Core: 1, At: 2 * sim.Second}}}
	r := Run(fastCfg(42, spec))
	if !strings.Contains(r.FaultTimeline, "core-loss core1 offline") {
		t.Fatalf("timeline missing the loss:\n%s", r.FaultTimeline)
	}
	if n := r.Kernel.NumOnlineCPUs(); n != 2 {
		t.Fatalf("NumOnlineCPUs = %d after core loss, want 2", n)
	}
	if r.Kernel.MigHotplug == 0 {
		t.Fatal("no hotplug migrations recorded")
	}
	for _, task := range r.Tasks {
		if !task.Exited() {
			t.Fatalf("rank %s never finished after the core loss", task.Name)
		}
	}
}

// stallPrelude seeds the deadlock fixture: from onset on, the engine fires
// an endless chain of same-instant events, so the simulated clock stops
// advancing while the event pump stays busy — precisely the failure the
// liveness watchdog exists to catch.
func stallPrelude(onset sim.Time) func(*sched.Kernel) {
	return func(k *sched.Kernel) {
		var loop func()
		loop = func() { k.Engine.Schedule(k.Engine.Now(), loop) }
		k.Engine.Schedule(onset, loop)
	}
}

// TestWatchdogAbortsStalledRun: the fixture must be detected, the run
// aborted, and the diagnostic dump delivered.
func TestWatchdogAbortsStalledRun(t *testing.T) {
	cfg := fastCfg(42, faults.Spec{})
	cfg.Prelude = stallPrelude(sim.Second)
	cfg.StallTimeout = 50 * time.Millisecond
	_, err := RunCtx(context.Background(), cfg)
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !strings.Contains(aerr.Reason, "stalled") {
		t.Fatalf("reason = %q, want a stall verdict", aerr.Reason)
	}
	for _, want := range []string{"last kernel instant", "pending events", "state="} {
		if !strings.Contains(aerr.Dump, want) {
			t.Fatalf("diagnostic dump missing %q:\n%s", want, aerr.Dump)
		}
	}
	if !strings.Contains(aerr.Dump, "last kernel instant: 1.000000s") {
		t.Fatalf("dump does not place the stall at its instant:\n%s", aerr.Dump)
	}
}

// TestRunCtxCancelStopsMidReplica: satellite 1 — context cancellation
// reaches the kernel pump, so a cancelled run stops mid-simulation instead
// of finishing the hour.
func TestRunCtxCancelStopsMidReplica(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := fastCfg(42, faults.Spec{})
	_, err := RunCtx(ctx, cfg)
	var aerr *AbortError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *AbortError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AbortError does not unwrap to context.Canceled: %v", err)
	}
}

// TestHardenedBatchDegradesExplicitly is the PR's acceptance fixture: one
// replica stalls (watchdog abort → retried → fails again), one panics
// mid-run, the rest finish. The batch completes, the failures carry their
// verdicts, and the stats aggregate the finished replicas with the failures
// reported rather than hidden.
func TestHardenedBatchDegradesExplicitly(t *testing.T) {
	cfgs := []Config{
		fastCfg(1, faults.Spec{}),
		fastCfg(2, faults.Spec{}),
		fastCfg(3, faults.Spec{}),
		fastCfg(4, faults.Spec{}),
	}
	cfgs[1].Prelude = stallPrelude(sim.Second)
	cfgs[2].Prelude = func(k *sched.Kernel) {
		k.AddProcess(sched.TaskSpec{Name: "bomb", Policy: sched.PolicyNormal},
			func(env *sched.Env) {
				env.Sleep(sim.Second)
				panic("injected replica panic")
			})
	}
	results, ok, failed, err := RunConfigs(context.Background(), cfgs, ExecOptions{
		MaxRetries:   1,
		StallTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 {
		t.Fatalf("failed = %v, want the stalled and the panicking replica", failed)
	}
	stall, boom := failed[0], failed[1]
	if stall.Index != 1 || stall.Kind != batch.KindError || stall.Attempts != 2 {
		t.Fatalf("stalled replica verdict = %+v, want index 1, error, 2 attempts", stall)
	}
	if !strings.Contains(stall.Err.Error(), "stalled") ||
		!strings.Contains(stall.Err.Error(), "pending events") {
		t.Fatalf("stall error lost the watchdog dump: %v", stall.Err)
	}
	if boom.Index != 2 || boom.Kind != batch.KindPanic || boom.Attempts != 2 {
		t.Fatalf("panicking replica verdict = %+v, want index 2, panic, 2 attempts", boom)
	}
	if !strings.Contains(boom.Err.Error(), "injected replica panic") || boom.Stack == "" {
		t.Fatalf("panic verdict lost its value or stack: %v", boom.Err)
	}
	if !ok[0] || ok[1] || ok[2] || !ok[3] {
		t.Fatalf("OK mask = %v", ok)
	}
	// Graceful degradation: the finished replicas aggregate, the failed
	// ones count, the CI widens through the reduced N.
	execs := make([]float64, len(results))
	for i, r := range results {
		execs[i] = r.ExecTime.Seconds()
	}
	d := batch.SummarizeFinished(execs, ok)
	if d.N != 2 || d.Failed != 2 {
		t.Fatalf("degraded summary N=%d Failed=%d, want 2/2", d.N, d.Failed)
	}
	if d.Mean <= 0 {
		t.Fatalf("degraded mean %v", d.Mean)
	}
}

// TestHardenedRetryUsesFreshSeeds: a replica that fails only on its first
// derived stream must succeed on a retry's fresh seed — and the retry seed
// derivation is deterministic.
func TestHardenedRetryUsesFreshSeeds(t *testing.T) {
	var seeds []uint64
	cfg := fastCfg(42, faults.Spec{})
	failFirst := true
	cfg.Prelude = func(k *sched.Kernel) {
		seeds = append(seeds, 0) // one entry per attempt
		if failFirst {
			failFirst = false
			panic("first-attempt failure")
		}
	}
	results, _, failed, err := RunConfigs(context.Background(), []Config{cfg},
		ExecOptions{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed = %v, want recovery on retry", failed)
	}
	if len(seeds) != 2 {
		t.Fatalf("ran %d attempts, want 2", len(seeds))
	}
	// The retried run must carry a derived seed, not replay the original.
	if got := results[0].Config.Seed; got == 42 {
		t.Fatal("retry replayed the original seed instead of deriving a fresh one")
	}
}
