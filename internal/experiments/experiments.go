// Package experiments assembles full simulation runs — chip, kernel, OS
// noise, MPI workload, scheduler configuration — and reproduces every
// table and figure of the paper's evaluation (§V).
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hpcsched/internal/core"
	"hpcsched/internal/faults"
	"hpcsched/internal/metrics"
	"hpcsched/internal/mpi"
	"hpcsched/internal/noise"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

// Mode selects the scheduler configuration of a run, matching the rows of
// the paper's tables.
type Mode int

const (
	// ModeBaseline: unmodified 2.6.24 CFS, default priorities.
	ModeBaseline Mode = iota
	// ModeStatic: CFS plus the paper's hand-tuned static hardware
	// priorities (the approach of reference [5]).
	ModeStatic
	// ModeUniform: HPCSched with the Uniform heuristic.
	ModeUniform
	// ModeAdaptive: HPCSched with the Adaptive heuristic.
	ModeAdaptive
	// ModeHybrid: HPCSched with the future-work hybrid heuristic.
	ModeHybrid
	// ModeHPCOnly: HPCSched with priority changes disabled (scheduling
	// policy benefits only) — the ablation isolating the class effects.
	ModeHPCOnly
)

func (m Mode) String() string {
	switch m {
	case ModeBaseline:
		return "Baseline 2.6.24"
	case ModeStatic:
		return "Static"
	case ModeUniform:
		return "Uniform"
	case ModeAdaptive:
		return "Adaptive"
	case ModeHybrid:
		return "Hybrid"
	case ModeHPCOnly:
		return "HPC-policy-only"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode maps a command-line mode name, in any case, to its Mode:
// baseline (or cfs), static, uniform, adaptive, hybrid and policy-only (or
// hpconly).
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "baseline", "cfs":
		return ModeBaseline, nil
	case "static":
		return ModeStatic, nil
	case "uniform":
		return ModeUniform, nil
	case "adaptive":
		return ModeAdaptive, nil
	case "hybrid":
		return ModeHybrid, nil
	case "policy-only", "hpconly":
		return ModeHPCOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// UsesHPCClass reports whether the mode installs the HPC scheduling class.
func (m Mode) UsesHPCClass() bool {
	return m == ModeUniform || m == ModeAdaptive || m == ModeHybrid || m == ModeHPCOnly
}

// policy returns the scheduling policy the mode's ranks run under.
func (m Mode) policy() sched.Policy {
	if m.UsesHPCClass() {
		return sched.PolicyHPC
	}
	return sched.PolicyNormal
}

// MachineCPUs is the simulated machine's hardware context count: every
// experiment runs on the paper's 2-core × 2-SMT POWER5 chip, so fault
// schedules for an experiment run always compile against 4 contexts.
const MachineCPUs = 4

// Config is one experiment run.
type Config struct {
	Workload string // metbench | metbenchvar | btmz | siesta | matmul
	Mode     Mode
	Seed     uint64

	// Nodes is the size of the simulated cluster the workload is tiled
	// across — each node a full copy of the paper's machine with its own
	// kernel, noise and (per-node-scoped) faults — coupled by the
	// inter-node MPI latency model and advanced by a conservative
	// sequential calendar of nodes (internal/cluster). 0 or 1 is the
	// paper's single-node run: the 1-node cluster, whose node 0 draws the
	// very streams the run seed gives one machine.
	Nodes int
	// Topology shapes inter-node latencies for cluster runs: "flat"
	// (default), "ring" or "star".
	Topology string
	// Shards is ignored: a cluster run advances its nodes on one
	// goroutine, and parallelism is across batch replicas. The field
	// remains only because perfbench/ still sets it.
	//
	// Deprecated: ignored.
	Shards int
	// FloorPacing forces a cluster run onto the clock+floor window cadence
	// instead of the default lookahead calendar. Results are byte-identical
	// either way; the knob exists for the equivalence suites that prove it.
	FloorPacing bool

	// Noise overrides the default OS noise (nil → noise.DefaultConfig).
	Noise *noise.Config
	// Params overrides the HPC tunables (zero → core.DefaultParams).
	Params core.Params
	// Discipline selects FIFO/RR inside the HPC class.
	Discipline core.Discipline
	// PerfModel overrides the chip model (nil → calibrated default).
	PerfModel power5.PerfModel
	// KernelOpts overrides the scheduler options (zero → 2.6.24 defaults).
	KernelOpts sched.Options
	// Trace enables interval recording (needed for the figures).
	Trace bool
	// TraceSink, when non-nil (with Trace set), streams the trace through
	// the given sink instead of retaining history in memory: the run can
	// be traced to a .prv file (trace.PRVSink) or measured without
	// retention (trace.NullSink). Result.Recorder then has task identities
	// but no renderable intervals. A sink is one ordered stream, so runs of
	// more than one node reject it with a *TraceSinkError.
	TraceSink trace.Sink
	// Horizon bounds the run (0 → 1 simulated hour).
	Horizon sim.Time

	// Faults requests deterministic fault injection: the spec is compiled
	// with the run seed into a fixed fault timeline before the run starts.
	// The zero Spec is a provable no-op (nothing installed at all).
	Faults faults.Spec
	// FaultSeed, when non-nil, pins the fault-compile seed independently of
	// the run seed: every replica of a scenario then shares one fault
	// timeline, so phase boundaries line up across seeds and modes (the
	// selector's per-phase scoring depends on this). Nil keeps the legacy
	// behaviour: the timeline is drawn from the run seed.
	FaultSeed *uint64
	// StallTimeout arms the liveness watchdog (RunCtx only): if the
	// simulated clock fails to advance for this much wall-clock time while
	// events keep firing, the run is aborted with a diagnostic dump. 0
	// disables the watchdog.
	StallTimeout time.Duration

	// Prelude, when non-nil, runs after the machine, noise and workload are
	// assembled, just before the clock starts: an extension point for extra
	// processes or events (tests use it to seed pathological fixtures such
	// as stall loops for the watchdog).
	Prelude func(*sched.Kernel)

	// Probe, when non-nil, runs after fault installation, just before the
	// clock starts, with the assembled kernel and job. Unlike Prelude it
	// sees the job's tasks, so pure-read instrumentation (the selector's
	// phase-boundary progress sampling) hooks in here.
	Probe func(*sched.Kernel, *workloads.Job)

	// WorkloadTweak, when non-nil, may mutate the default workload
	// configuration before the job is built (used by sweeps and tests).
	TweakMetBench    func(*workloads.MetBenchConfig)
	TweakMetBenchVar func(*workloads.MetBenchVarConfig)
	TweakBTMZ        func(*workloads.BTMZConfig)
	TweakSiesta      func(*workloads.SiestaConfig)
	TweakMatMulDAG   func(*workloads.MatMulDAGConfig)
}

// Result carries everything the tables and figures need.
type Result struct {
	Config    Config
	ExecTime  sim.Time
	Summaries []metrics.TaskSummary
	Imbalance float64
	Recorder  *trace.Recorder // nil unless Config.Trace
	HPC       *core.HPCClass  // nil unless the mode uses the class
	World     *mpi.World
	Tasks     []*sched.Task
	Kernel    *sched.Kernel // shut down; inspect counters only
	// FaultTimeline is the applied fault-action log, one line per action
	// (empty without faults), each prefixed with its node ("n0 ", "n1 ",
	// ...). Same seed and spec → byte-identical timeline.
	FaultTimeline string
	// Cluster carries the per-node artifacts of the run. It is set on every
	// run that got as far as building its nodes, single-node runs included.
	Cluster *ClusterInfo
}

// staticPrios returns the paper's hand-tuned priorities per workload.
func staticPrios(workload string) []power5.Priority {
	switch workload {
	case "metbench", "metbenchvar":
		return workloads.MetBenchStaticPrios()
	case "btmz":
		return workloads.BTMZStaticPrios()
	case "matmul":
		return workloads.MatMulDAGStaticPrios()
	default:
		// The paper reports no static configuration for SIESTA
		// (its behaviour defeats hand tuning); run with defaults.
		return nil
	}
}

// UnknownWorkloadError reports a Config.Workload that names no workload.
// RunCtx returns it before it builds any kernel or cluster.
type UnknownWorkloadError struct {
	Workload string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("experiments: unknown workload %q", e.Workload)
}

// jobBuilder resolves cfg's workload to the builder of its job: the
// workload's default config with the mode's policy and static priorities
// set and the Tweak hook applied, ready to build on a cluster of any size.
// It is the one workload switch.
func jobBuilder(cfg Config) (func(workloads.Placement) *workloads.Job, error) {
	policy := cfg.Mode.policy()
	var prios []power5.Priority
	if cfg.Mode == ModeStatic {
		prios = staticPrios(cfg.Workload)
	}
	switch cfg.Workload {
	case "metbench":
		wc := workloads.DefaultMetBench()
		wc.Policy, wc.StaticPrios = policy, prios
		if cfg.TweakMetBench != nil {
			cfg.TweakMetBench(&wc)
		}
		return func(p workloads.Placement) *workloads.Job { return workloads.BuildMetBench(p, wc) }, nil
	case "metbenchvar":
		wc := workloads.DefaultMetBenchVar()
		wc.Policy, wc.StaticPrios = policy, prios
		if cfg.TweakMetBenchVar != nil {
			cfg.TweakMetBenchVar(&wc)
		}
		return func(p workloads.Placement) *workloads.Job { return workloads.BuildMetBenchVar(p, wc) }, nil
	case "btmz":
		wc := workloads.DefaultBTMZ()
		wc.Policy, wc.StaticPrios = policy, prios
		if cfg.TweakBTMZ != nil {
			cfg.TweakBTMZ(&wc)
		}
		return func(p workloads.Placement) *workloads.Job { return workloads.BuildBTMZ(p, wc) }, nil
	case "siesta":
		wc := workloads.DefaultSiesta()
		wc.Policy, wc.StaticPrios = policy, prios
		if cfg.TweakSiesta != nil {
			cfg.TweakSiesta(&wc)
		}
		return func(p workloads.Placement) *workloads.Job { return workloads.BuildSiesta(p, wc) }, nil
	case "matmul":
		wc := workloads.DefaultMatMulDAG()
		wc.Policy, wc.StaticPrios = policy, prios
		if cfg.TweakMatMulDAG != nil {
			cfg.TweakMatMulDAG(&wc)
		}
		return func(p workloads.Placement) *workloads.Job { return workloads.BuildMatMulDAG(p, wc) }, nil
	default:
		return nil, &UnknownWorkloadError{Workload: cfg.Workload}
	}
}

// node is one assembled copy of the paper's machine.
type node struct {
	kernel *sched.Kernel
	hpc    *core.HPCClass  // nil unless the mode uses the class
	rec    *trace.Recorder // nil unless Config.Trace
}

// newNode assembles one machine on eng: chip, kernel, the mode's HPC
// class, the trace recorder and OS noise, in that order (the order fixes
// the engine's RNG draws, which the goldens pin).
func newNode(cfg Config, eng *sim.Engine) node {
	pm := cfg.PerfModel
	if pm == nil {
		pm = power5.NewCalibratedPerfModel()
	}
	n := node{kernel: sched.NewKernel(eng, power5.NewChip(2, pm), cfg.KernelOpts)}
	if cfg.Mode.UsesHPCClass() {
		params := cfg.Params
		if params == (core.Params{}) {
			params = core.DefaultParams()
		}
		h, mech := hpcPolicy(cfg.Mode)
		n.hpc = core.MustInstall(n.kernel, core.Config{
			Heuristic:  h,
			Mechanism:  mech,
			Discipline: cfg.Discipline,
			Params:     params,
		})
	}
	if cfg.Trace {
		if cfg.TraceSink != nil {
			n.rec = trace.NewRecorderWithSink(cfg.TraceSink)
		} else {
			n.rec = trace.NewRecorder()
		}
		n.rec.Filter = func(t *sched.Task) bool { return t.Name[0] == 'P' }
		n.kernel.SetTracer(n.rec)
	}
	nz := noise.DefaultConfig()
	if cfg.Noise != nil {
		nz = *cfg.Noise
	}
	noise.Install(n.kernel, nz)
	return n
}

// hpcPolicy returns the heuristic and mechanism of an HPC-class mode.
func hpcPolicy(m Mode) (core.Heuristic, core.Mechanism) {
	switch m {
	case ModeUniform:
		return core.UniformHeuristic{}, core.POWER5Mechanism{}
	case ModeAdaptive:
		return core.AdaptiveHeuristic{}, core.POWER5Mechanism{}
	case ModeHybrid:
		return core.HybridHeuristic{}, core.POWER5Mechanism{}
	default: // ModeHPCOnly: scheduling-policy benefits only
		return core.FixedHeuristic{}, core.NullMechanism{}
	}
}

// Run executes one experiment. It is RunCtx without cancellation or
// watchdog: with a background context and no StallTimeout the run cannot
// abort, so the only errors left — an unknown workload or a rejected
// cluster configuration (topology, trace sink, lookahead) — panic.
func Run(cfg Config) Result {
	cfg.StallTimeout = 0
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// RunCtx executes one experiment under a context. An unknown workload is
// an *UnknownWorkloadError, returned before anything is built. Every run,
// single-node included, is a cluster run of Config.Nodes nodes (see
// runJob). Cancellation propagates into the event pump through each
// engine's interrupt hook, so a cancelled batch stops mid-replica instead
// of finishing the simulated hour. When cfg.StallTimeout is set, the same
// hook doubles as the liveness watchdog. An aborted run returns a partial
// Result plus an *AbortError carrying the reason and a diagnostic dump;
// the kernels are shut down either way (no leaked process goroutines). A
// panic out of the model layers shuts the kernels down and re-panics, so
// batch-level recovery sees a clean process.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	build, err := jobBuilder(cfg)
	if err != nil {
		return Result{Config: cfg}, err
	}
	return runJob(ctx, cfg, build)
}

// TableModes returns the mode rows the paper reports for a workload.
func TableModes(workload string) []Mode {
	if workload == "siesta" {
		// Table VI has no Static row.
		return []Mode{ModeBaseline, ModeUniform, ModeAdaptive}
	}
	return []Mode{ModeBaseline, ModeStatic, ModeUniform, ModeAdaptive}
}

// TableResult is a reproduced paper table.
type TableResult struct {
	Workload string
	Rows     []Result
}

// RunTable reproduces one of Tables III-VI. The mode rows run as a
// parallel batch; the row order (and therefore the rendered table) is
// identical to a serial run. It is one ScenarioSpec: the workload's mode
// rows over a single seed, soft execution.
func RunTable(workload string, seed uint64) TableResult {
	sr, err := RunScenario(context.Background(), ScenarioSpec{
		Workload: workload, Seed: seed, Modes: TableModes(workload),
	})
	if err != nil {
		panic(err) // unreachable: background context, soft pool
	}
	return TableResult{Workload: workload, Rows: sr.Results}
}

// Baseline returns the table's baseline row.
func (tr TableResult) Baseline() Result { return tr.Rows[0] }

// ImprovementOf returns the exec-time improvement of the given row over
// the baseline.
func (tr TableResult) ImprovementOf(m Mode) float64 {
	base := tr.Baseline().ExecTime
	for _, r := range tr.Rows {
		if r.Config.Mode == m {
			return metrics.Improvement(base, r.ExecTime)
		}
	}
	return 0
}

// Format renders the table in the paper's layout.
func (tr TableResult) Format() string {
	header := []string{"Test", "Proc", "% Comp", "Prio", "Exec. Time", "vs base"}
	var rows [][]string
	base := tr.Baseline().ExecTime
	for _, r := range tr.Rows {
		for i, s := range r.Summaries {
			test, exec, imp := "", "", ""
			if i == 0 {
				test = r.Config.Mode.String()
				exec = fmt.Sprintf("%.2fs", r.ExecTime.Seconds())
				imp = fmt.Sprintf("%+.1f%%", 100*metrics.Improvement(base, r.ExecTime))
			}
			prio := fmt.Sprintf("%d", s.HWPrio)
			if r.Config.Mode.UsesHPCClass() {
				prio = fmt.Sprintf("(%d)", s.HWPrio) // dynamic: final value
			}
			rows = append(rows, []string{test, s.Name,
				fmt.Sprintf("%.2f", s.CompPct), prio, exec, imp})
		}
	}
	return fmt.Sprintf("%s — reproduction of the paper's table\n%s",
		tr.Workload, metrics.Table(header, rows))
}
