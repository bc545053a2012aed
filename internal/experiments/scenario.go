package experiments

import (
	"context"
	"time"

	"hpcsched/internal/batch"
	"hpcsched/internal/faults"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
)

// ExecOptions is the one batch-execution options struct. The zero value
// means soft execution — default worker count, no progress reporting, no
// watchdog, no retries (a panicking replica crashes the process,
// determinism is absolute). Setting any of
// the protection knobs (Timeout, MaxRetries, StallTimeout) switches the
// pool to hardened execution with per-replica failure verdicts.
type ExecOptions struct {
	// Workers is the pool size; <= 0 means runtime.NumCPU().
	Workers int
	// Progress, when non-nil, is called after each run completes with the
	// number of completed runs and the total (serialized, strictly
	// increasing).
	Progress func(done, total int)

	// Timeout is the per-replica wall-clock deadline (0 disables).
	Timeout time.Duration
	// MaxRetries retries a failed replica up to this many times, each
	// attempt on a fresh seed derived from the original.
	MaxRetries int
	// Backoff is the wall-clock pause before the r-th retry (linear:
	// r×Backoff).
	Backoff time.Duration
	// StallTimeout arms each replica's sim-clock liveness watchdog.
	StallTimeout time.Duration

	// Harden forces the hardened pool even with every protection knob at
	// zero: panics are recovered into per-replica failures instead of
	// crashing the process. Fault-injected batches set this so a replica
	// that legitimately dies under perturbation is reported, not fatal.
	Harden bool
}

// Hardened reports whether the hardened pool is selected: any protection
// knob set, or Harden forced; the zero value is soft.
func (o ExecOptions) Hardened() bool {
	return o.Harden || o.Timeout > 0 || o.MaxRetries > 0 || o.StallTimeout > 0
}

// ScenarioSpec is the unified run request of the redesigned API: one value
// describing what to simulate (workload, scheduler mode, perturbations),
// how often (replica seeds) and how to execute it (pool options). Table
// reproductions, multi-seed statistics and hardened fleets are thin
// expansions of this struct.
type ScenarioSpec struct {
	// Name labels the scenario in reports (optional).
	Name string
	// Workload is one of workloads.Names(). When empty and Advanced is
	// set, the Advanced config is used verbatim (replication fields still
	// apply).
	Workload string
	// Mode is the scheduler configuration; Modes, when non-empty,
	// overrides it with several (the grid is seed-major, mode-minor).
	Mode  Mode
	Modes []Mode

	// Seed is the base run seed. Seeds, when non-empty, lists explicit
	// replica seeds; otherwise Replicas > 1 derives that many independent
	// seeds from Seed (batch.Seeds), and the default is the single Seed.
	Seed     uint64
	Seeds    []uint64
	Replicas int

	// Nodes/Topology size the cluster each run uses (see Config): Nodes
	// scales the workload across that many simulated nodes (0 or 1 is the
	// paper's single node), Topology shapes the interconnect.
	Nodes    int
	Topology string

	// Faults is the perturbation request (zero → provably no faults).
	// FaultSeed pins the fault timeline independently of the run seed so
	// all replicas and modes of the scenario share one set of phase
	// boundaries.
	Faults    faults.Spec
	FaultSeed *uint64

	// Horizon bounds each run (0 → 1 simulated hour).
	Horizon sim.Time
	// Trace/TraceSink enable interval recording (see Config).
	Trace     bool
	TraceSink trace.Sink

	// Exec controls the worker pool; the zero value is soft execution.
	Exec ExecOptions

	// Advanced, when non-nil, is the base Config the expansion starts
	// from: the escape hatch for knobs the spec does not surface (noise,
	// HPC params, workload tweaks, preludes). With Workload set, the
	// spec's own fields overwrite the corresponding Advanced fields; with
	// Workload empty, Advanced is used verbatim.
	Advanced *Config
}

// baseConfig resolves the spec into the Config every replica starts from.
func (s ScenarioSpec) baseConfig() Config {
	if s.Workload == "" && s.Advanced != nil {
		return *s.Advanced
	}
	var c Config
	if s.Advanced != nil {
		c = *s.Advanced
	}
	c.Workload = s.Workload
	c.Mode = s.Mode
	c.Seed = s.Seed
	if s.Nodes > 0 {
		c.Nodes = s.Nodes
	}
	if s.Topology != "" {
		c.Topology = s.Topology
	}
	c.Faults = s.Faults
	c.FaultSeed = s.FaultSeed
	if s.Horizon > 0 {
		c.Horizon = s.Horizon
	}
	if s.Trace {
		c.Trace = true
		c.TraceSink = s.TraceSink
	}
	return c
}

// ReplicaSeeds returns the spec's replica seeds in run order.
func (s ScenarioSpec) ReplicaSeeds() []uint64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	seed := s.Seed
	if s.Seed == 0 && s.Advanced != nil {
		seed = s.Advanced.Seed
	}
	if s.Replicas > 1 {
		return batch.Seeds(seed, s.Replicas)
	}
	return []uint64{seed}
}

// ModeList returns the spec's scheduler modes in run order.
func (s ScenarioSpec) ModeList() []Mode {
	if len(s.Modes) > 0 {
		return s.Modes
	}
	return []Mode{s.baseConfig().Mode}
}

// Configs expands the spec into the full (seed × mode) replica grid, in
// the canonical seed-major order every aggregation in this package reads.
func (s ScenarioSpec) Configs() []Config {
	base := s.baseConfig()
	seeds := s.ReplicaSeeds()
	modes := s.ModeList()
	cfgs := make([]Config, 0, len(seeds)*len(modes))
	for _, seed := range seeds {
		for _, m := range modes {
			c := base
			c.Seed = seed
			c.Mode = m
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// ScenarioResult is the outcome of one scenario: every replica run of the
// expanded grid, in submission order, plus explicit per-replica failures
// when the pool ran hardened.
type ScenarioResult struct {
	Spec    ScenarioSpec
	Configs []Config // the expanded grid, submission order
	// Results[i] is the run of Configs[i]; a failed (hardened) or
	// never-started (cancelled) replica is a zero Result — check OK.
	Results []Result
	// OK[i] reports whether Results[i] finished.
	OK []bool
	// Failed lists hardened-pool failures in index order (indices into
	// Configs/Results).
	Failed []*batch.JobError
}

// RunScenario executes one scenario. Soft execution (the zero ExecOptions)
// gives identical results at any worker count, lets panics propagate and
// is all-or-nothing. Hardened execution records
// failures per replica instead.
func RunScenario(ctx context.Context, spec ScenarioSpec) (ScenarioResult, error) {
	sr := ScenarioResult{Spec: spec, Configs: spec.Configs()}
	res, ok, failed, err := RunConfigs(ctx, sr.Configs, spec.Exec)
	sr.Results, sr.OK, sr.Failed = res, ok, failed
	return sr, err
}

// SweepScenarios executes a scenario grid on one shared worker pool: all
// replicas of all specs are flattened into a single submission (spec
// order, then each spec's canonical grid order), so the pool stays busy
// across scenario boundaries and determinism still holds at any worker
// count. opts controls the shared pool; each spec's own Exec is ignored
// here. Failed indices in each ScenarioResult are rebased to that
// scenario's grid.
func SweepScenarios(ctx context.Context, specs []ScenarioSpec, opts ExecOptions) ([]ScenarioResult, error) {
	out := make([]ScenarioResult, len(specs))
	var flat []Config
	offsets := make([]int, len(specs))
	for i, spec := range specs {
		out[i] = ScenarioResult{Spec: spec, Configs: spec.Configs()}
		offsets[i] = len(flat)
		flat = append(flat, out[i].Configs...)
	}
	res, ok, failed, err := RunConfigs(ctx, flat, opts)
	for i := range out {
		lo, hi := offsets[i], offsets[i]+len(out[i].Configs)
		out[i].Results = res[lo:hi:hi]
		out[i].OK = ok[lo:hi:hi]
		for _, je := range failed {
			if je.Index >= lo && je.Index < hi {
				local := *je
				local.Index -= lo
				out[i].Failed = append(out[i].Failed, &local)
			}
		}
	}
	return out, err
}

// RunConfigs executes an explicit, possibly heterogeneous config list on
// the unified pool — the escape hatch for callers whose per-replica
// configs differ beyond what ScenarioSpec expresses (the selector's
// per-run probes). It is the one execution path every entry point
// funnels into: soft (batch.Map) when no protection knob is set, hardened
// (batch.MapHardened) otherwise. Results are in submission order; OK and
// the failure list follow the hardened contract when opts selects it
// (soft pools return every OK true and no failures).
func RunConfigs(ctx context.Context, cfgs []Config, opts ExecOptions) ([]Result, []bool, []*batch.JobError, error) {
	if !opts.Hardened() {
		res, err := batch.Map(ctx,
			batch.Options{Workers: opts.Workers, Progress: opts.Progress}, cfgs,
			func(_ context.Context, _ int, cfg Config) Result {
				return Run(cfg)
			})
		ok := make([]bool, len(res))
		for i := range ok {
			ok[i] = true
		}
		return res, ok, nil, err
	}
	return execHardened(ctx, cfgs, opts)
}

// execHardened runs cfgs on the hardened pool; with every protection knob
// at zero (Harden alone) it still recovers panics.
func execHardened(ctx context.Context, cfgs []Config, opts ExecOptions) ([]Result, []bool, []*batch.JobError, error) {
	res, failed, err := batch.MapHardened(ctx,
		batch.HardenedOptions{
			Options:    batch.Options{Workers: opts.Workers, Progress: opts.Progress},
			Timeout:    opts.Timeout,
			MaxRetries: opts.MaxRetries,
			Backoff:    opts.Backoff,
		},
		cfgs,
		func(jctx context.Context, _, attempt int, cfg Config) (Result, error) {
			if attempt > 0 {
				cfg.Seed = batch.DeriveSeed(cfg.Seed, retrySalt+uint64(attempt))
			}
			if opts.StallTimeout > 0 {
				cfg.StallTimeout = opts.StallTimeout
			}
			return RunCtx(jctx, cfg)
		})
	ok := make([]bool, len(res))
	for i := range ok {
		ok[i] = true
	}
	for _, je := range failed {
		ok[je.Index] = false
	}
	return res, ok, failed, err
}
