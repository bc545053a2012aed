// Package hpcsched is a faithful, simulation-backed reproduction of
// "A Dynamic Scheduler for Balancing HPC Applications" (Boneti, Gioiosa,
// Cazorla, Valero — SC 2008).
//
// The package re-exports a stable facade over the internal packages:
//
//   - a deterministic discrete-event simulation of an IBM POWER5 chip
//     (2 cores × 2 SMT contexts) with software-controlled hardware thread
//     priorities;
//   - a Linux-2.6.24-style scheduler framework (scheduling classes, CFS,
//     real-time, idle) running on that chip;
//   - HPCSched, the paper's contribution: the SCHED_HPC class, the Load
//     Imbalance Detector, the Uniform and Adaptive heuristics and the
//     POWER5 priority mechanism;
//   - a simulated MPI runtime and the paper's four workloads (MetBench,
//     MetBenchVar, BT-MZ, SIESTA);
//   - the experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// Quick start — one ScenarioSpec describes what to simulate, how often
// and how to execute it; Run executes it, Sweep fans a grid out on one
// shared pool:
//
//	sr, _ := hpcsched.Run(context.Background(), hpcsched.ScenarioSpec{
//		Workload: "metbench",
//		Seed:     42,
//		Modes:    hpcsched.TableModes("metbench"),
//	})
//	fmt.Println(hpcsched.FormatTable("metbench", sr.Results))
//
// See examples/ for complete programs.
package hpcsched

import (
	"context"
	"io"

	"hpcsched/internal/core"
	"hpcsched/internal/experiments"
	"hpcsched/internal/faults"
	"hpcsched/internal/metrics"
	"hpcsched/internal/mpi"
	"hpcsched/internal/noise"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/selector"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// Re-exported core types. The facade keeps the public API surface in one
// place; the internal packages remain free to evolve.
type (
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Engine is the discrete-event core.
	Engine = sim.Engine
	// Chip is the POWER5 model.
	Chip = power5.Chip
	// Priority is a hardware thread priority (0..7).
	Priority = power5.Priority
	// PerfModel maps priority pairs to execution speed.
	PerfModel = power5.PerfModel
	// Kernel is the scheduler core.
	Kernel = sched.Kernel
	// Task is the kernel task descriptor.
	Task = sched.Task
	// TaskSpec configures a new simulated process.
	TaskSpec = sched.TaskSpec
	// Env is the process-side system-call surface.
	Env = sched.Env
	// Policy is a scheduling policy (SCHED_NORMAL, SCHED_HPC, ...).
	Policy = sched.Policy
	// HPCClass is the paper's scheduling class.
	HPCClass = core.HPCClass
	// HPCConfig assembles an HPC class.
	HPCConfig = core.Config
	// HPCParams are the sysfs-tunable heuristic parameters.
	HPCParams = core.Params
	// Heuristic chooses hardware priorities from iteration statistics.
	Heuristic = core.Heuristic
	// Mechanism applies hardware priorities (architecture-dependent).
	Mechanism = core.Mechanism
	// World is a simulated MPI job.
	World = mpi.World
	// Rank is one MPI process.
	Rank = mpi.Rank
	// Recorder captures scheduling traces.
	Recorder = trace.Recorder
	// TraceSink consumes trace records as they are produced.
	TraceSink = trace.Sink
	// PRVSink streams Paraver .prv records to a seekable writer.
	PRVSink = trace.PRVSink
	// NullTraceSink discards trace records (overhead measurement).
	NullTraceSink = trace.NullSink
	// RenderOptions controls ASCII trace rendering.
	RenderOptions = trace.RenderOptions
	// TaskSummary is one row of the per-process report.
	TaskSummary = metrics.TaskSummary
	// NoiseConfig describes injected OS background activity.
	NoiseConfig = noise.Config
	// ExperimentConfig is one experiment run of the harness.
	ExperimentConfig = experiments.Config
	// ExperimentResult carries an experiment's measurements.
	ExperimentResult = experiments.Result
	// TableResult is a reproduced paper table.
	TableResult = experiments.TableResult
	// TableStats is a multi-seed, CI-quality reproduction of a table.
	TableStats = experiments.TableStats
	// DegradedTableStats is TableStats plus explicit per-mode failure
	// accounting from a hardened run.
	DegradedTableStats = experiments.DegradedTableStats
	// Mode selects the scheduler configuration of an experiment.
	Mode = experiments.Mode

	// ScenarioSpec is the unified run request: workload, scheduler
	// mode(s), replica seeds, fault spec, horizon, trace sink and pool
	// options in one value. Every other entry point is a thin expansion
	// of it.
	ScenarioSpec = experiments.ScenarioSpec
	// ScenarioResult carries a scenario's replica runs (submission
	// order) plus explicit failures when the pool ran hardened.
	ScenarioResult = experiments.ScenarioResult
	// ExecOptions is the one batch-execution options struct: the zero
	// value is soft execution (no watchdog, no retries, absolute
	// determinism); setting Timeout/MaxRetries/StallTimeout selects the
	// hardened pool.
	ExecOptions = experiments.ExecOptions
	// FaultSpec is a deterministic fault-injection request (see
	// ParseFaultSpec for the grammar).
	FaultSpec = faults.Spec
	// FaultParseError pinpoints the offending clause of a fault spec;
	// its Indicate method renders the spec with a caret underneath.
	FaultParseError = faults.ParseError

	// SelectorScenario is one cell of a perturbation grid for
	// scheduler selection (SelectSchedulers).
	SelectorScenario = selector.Scenario
	// SelectorOptions configures a selection sweep.
	SelectorOptions = selector.Options
	// SelectorReport is a scored selection sweep: per-phase winner
	// tables and oracle composites.
	SelectorReport = selector.Report
)

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Scheduling policies.
const (
	PolicyNormal = sched.PolicyNormal
	PolicyBatch  = sched.PolicyBatch
	PolicyFIFO   = sched.PolicyFIFO
	PolicyRR     = sched.PolicyRR
	PolicyHPC    = sched.PolicyHPC
	PolicyIdle   = sched.PolicyIdle
)

// Hardware thread priorities (Table II of the paper).
const (
	PrioThreadOff  = power5.PrioThreadOff
	PrioVeryLow    = power5.PrioVeryLow
	PrioLow        = power5.PrioLow
	PrioMediumLow  = power5.PrioMediumLow
	PrioMedium     = power5.PrioMedium
	PrioMediumHigh = power5.PrioMediumHigh
	PrioHigh       = power5.PrioHigh
	PrioVeryHigh   = power5.PrioVeryHigh
)

// Experiment modes (the rows of the paper's tables).
const (
	ModeBaseline = experiments.ModeBaseline
	ModeStatic   = experiments.ModeStatic
	ModeUniform  = experiments.ModeUniform
	ModeAdaptive = experiments.ModeAdaptive
	ModeHybrid   = experiments.ModeHybrid
	ModeHPCOnly  = experiments.ModeHPCOnly
)

// MachineConfig configures a simulated machine.
type MachineConfig struct {
	// Seed drives every random decision; equal seeds → identical runs.
	Seed uint64
	// Cores is the number of dual-context cores (default 2: the paper's
	// machine).
	Cores int
	// Perf overrides the chip performance model (nil → calibrated).
	Perf PerfModel
	// Kernel overrides the scheduler options (zero value → 2.6.24-like
	// defaults).
	Kernel sched.Options
	// Noise configures OS background activity (nil → light default;
	// use &hpcsched.SilentNoise for none).
	Noise *NoiseConfig
	// HPC, when non-nil, installs the HPC scheduling class.
	HPC *HPCConfig
	// Tracer records scheduling events when non-nil.
	Tracer *Recorder
}

// SilentNoise disables background daemons.
var SilentNoise = noise.Silent()

// Machine is an assembled simulation: chip + kernel (+ optional HPC class
// and noise), ready for workloads.
type Machine struct {
	Engine *Engine
	Chip   *Chip
	Kernel *Kernel
	HPC    *HPCClass
}

// NewMachine builds a simulated machine.
func NewMachine(cfg MachineConfig) *Machine {
	cores := cfg.Cores
	if cores <= 0 {
		cores = 2
	}
	pm := cfg.Perf
	if pm == nil {
		pm = power5.NewCalibratedPerfModel()
	}
	engine := sim.NewEngine(cfg.Seed)
	chip := power5.NewChip(cores, pm)
	kernel := sched.NewKernel(engine, chip, cfg.Kernel)
	m := &Machine{Engine: engine, Chip: chip, Kernel: kernel}
	if cfg.HPC != nil {
		m.HPC = core.MustInstall(kernel, *cfg.HPC)
	}
	if cfg.Tracer != nil {
		kernel.SetTracer(cfg.Tracer)
	}
	nz := noise.DefaultConfig()
	if cfg.Noise != nil {
		nz = *cfg.Noise
	}
	noise.Install(kernel, nz)
	return m
}

// NewWorld creates an MPI world of the given size on the machine.
func (m *Machine) NewWorld(size int) *World {
	return mpi.NewWorld(m.Kernel, size, mpi.DefaultOptions())
}

// Run drives the simulation until every spawned (watched) task exits or
// the horizon passes, then reaps background processes. It returns the
// finish time.
func (m *Machine) Run(horizon Time) Time {
	end := m.Kernel.RunUntilWatchedExit(horizon)
	m.Kernel.Shutdown()
	return end
}

// Summaries reports per-task statistics for the given tasks at time end.
func Summaries(tasks []*Task, end Time) []TaskSummary {
	return metrics.Summarize(tasks, end)
}

// NewRecorder returns a trace recorder to pass in MachineConfig.Tracer.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// NewStreamRecorder returns a trace recorder that hands every record to
// sink without retaining history (see trace.NewRecorderWithSink).
func NewStreamRecorder(sink TraceSink) *Recorder { return trace.NewRecorderWithSink(sink) }

// NewPRVSink returns a streaming .prv sink over w (an *os.File works; the
// header is patched in place when the recorder finishes).
func NewPRVSink(w io.WriteSeeker) *PRVSink { return trace.NewPRVSink(w) }

// DefaultHPCParams returns the paper's tunables (HIGH_UTIL=85, LOW_UTIL=65,
// priorities [4,6], G=0.10/L=0.90).
func DefaultHPCParams() HPCParams { return core.DefaultParams() }

// Heuristics.
var (
	// Uniform is the paper's global-utilization heuristic.
	Uniform Heuristic = core.UniformHeuristic{}
	// Adaptive is the paper's last-iteration-weighted heuristic.
	Adaptive Heuristic = core.AdaptiveHeuristic{}
	// Hybrid is the future-work heuristic (§VI): Uniform while the
	// application looks constant, Adaptive through phase changes.
	Hybrid Heuristic = core.HybridHeuristic{}
	// Fixed never changes priorities (policy-only ablation).
	Fixed Heuristic = core.FixedHeuristic{}
)

// Run executes one scenario: the spec's (seed × mode) replica grid on
// the unified pool. Soft execution (zero ExecOptions) preserves absolute
// determinism — identical results at any worker count, panics propagate;
// hardened execution records per-replica failures instead.
func Run(ctx context.Context, spec ScenarioSpec) (ScenarioResult, error) {
	return experiments.RunScenario(ctx, spec)
}

// Sweep executes a scenario grid on one shared worker pool: all replicas
// of all specs flatten into a single deterministic submission. opts
// controls the shared pool (each spec's own Exec is ignored).
func Sweep(ctx context.Context, grid []ScenarioSpec, opts ExecOptions) ([]ScenarioResult, error) {
	return experiments.SweepScenarios(ctx, grid, opts)
}

// ParseFaultSpec parses the fault grammar
// ("hetero|slow|stall|loss|storm|mpidelay:key=val,...;..."). Errors are
// *FaultParseError values pinpointing the offending clause, so CLIs can
// reject a bad spec before any simulation runs.
func ParseFaultSpec(s string) (FaultSpec, error) { return faults.Parse(s) }

// TableModes returns the mode rows the paper reports for a workload.
func TableModes(workload string) []Mode { return experiments.TableModes(workload) }

// FormatTable renders mode-row results in the paper's table layout.
func FormatTable(workload string, rows []ExperimentResult) string {
	return experiments.TableResult{Workload: workload, Rows: rows}.Format()
}

// TableStatsOf aggregates a replicated scenario's results into per-mode
// mean / stddev / 95% CI statistics (the spec must replicate via Seeds
// or Replicas, with Modes set to the workload's TableModes).
func TableStatsOf(sr ScenarioResult) TableStats { return experiments.TableStatsOf(sr) }

// DegradedTableStatsOf aggregates a hardened replicated scenario,
// widening intervals over the finished replicas and reporting failures
// next to them instead of dropping them silently.
func DegradedTableStatsOf(sr ScenarioResult) DegradedTableStats {
	return experiments.DegradedTableStatsOf(sr)
}

// SelectSchedulers sweeps perturbation scenarios across scheduler modes
// and reports per-phase winners plus the switch-at-phase-boundary oracle
// composite (with 95% CI) per scenario — simulation-assisted scheduler
// selection in the SimAS sense.
func SelectSchedulers(ctx context.Context, scenarios []SelectorScenario, opts SelectorOptions) (*SelectorReport, error) {
	return selector.Run(ctx, scenarios, opts)
}

// DefaultSelectorScenarios returns the standard three-scenario
// perturbation grid (heterogeneity, slowdown+storm, combined) for a
// workload.
func DefaultSelectorScenarios(workload string) []SelectorScenario {
	return selector.DefaultScenarios(workload)
}

// ReplicaSeeds returns n independent replication seeds derived from
// base; the prefix is stable when n grows.
func ReplicaSeeds(base uint64, n int) []uint64 { return experiments.SeedsFrom(base, n) }

// Workloads lists the available workload names.
func Workloads() []string { return workloads.Names() }
