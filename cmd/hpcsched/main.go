// Command hpcsched runs the paper's experiments and prints the reproduced
// tables, traces and hardware-model reference tables.
//
// Usage:
//
//	hpcsched table1                 # decode-slot allocation (Table I)
//	hpcsched table2                 # priority privilege levels (Table II)
//	hpcsched classes                # scheduling class order (Figure 1)
//	hpcsched table3|table4|table5|table6 [-seed N] [-replicas N] [-parallel W]
//	    [-faults SPEC] [-replica-timeout D] [-max-retries N] [-stall-timeout D]
//	hpcsched fig3|fig4|fig5|fig6 [-seed N] [-width N]
//	hpcsched run -workload metbench -mode uniform [-seed N] [-trace] [-faults SPEC]
//	    [-nodes N] [-topology flat|ring|star]
//	hpcsched list                   # available workloads
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hpcsched/internal/calibrate"
	"hpcsched/internal/experiments"
	"hpcsched/internal/faults"
	"hpcsched/internal/metrics"
	"hpcsched/internal/power5"
	"hpcsched/internal/trace"
	"hpcsched/internal/workloads"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hpcsched [-cpuprofile f] [-memprofile f] <command> [flags]

commands:
  table1            POWER5 decode cycles per priority difference (paper Table I)
  table2            priority privilege levels and or-nops (paper Table II)
  classes           scheduling class order, standard vs HPCSched (paper Figure 1)
  table3..table6    reproduce the paper's evaluation tables
  fig3..fig6        render the corresponding execution traces
  run               run one workload/scheduler combination
  validate          compare every table against the published values
  calibrate         show the chip-model derivation from the paper's anchors
  list              list workloads`)
	exit(2)
}

// profileCleanup holds the flush actions of active profiles. Commands must
// leave through exit(), never os.Exit directly: os.Exit skips defers, which
// would truncate the CPU profile (no trailer → unreadable by pprof) and
// drop the heap profile on precisely the runs worth profiling.
var profileCleanup []func()

// parseFlags parses a sub-command flag set, leaving through exit() on a
// bad flag so active profiles are still flushed (ContinueOnError already
// printed the error and usage).
func parseFlags(fs *flag.FlagSet, args []string) {
	if fs.Parse(args) != nil {
		exit(2)
	}
}

func exit(code int) {
	for _, f := range profileCleanup {
		f()
	}
	os.Exit(code)
}

func main() {
	// Global profiling flags precede the command:
	// hpcsched -cpuprofile cpu.out table3. Flag parsing stops at the first
	// non-flag argument, so per-command flags are untouched.
	top := flag.NewFlagSet("hpcsched", flag.ExitOnError)
	top.Usage = usage
	cpuProfile := top.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := top.String("memprofile", "", "write a heap profile to this file on exit")
	top.Parse(os.Args[1:])
	if top.NArg() < 1 {
		usage()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		profileCleanup = append(profileCleanup, pprof.StopCPUProfile)
	}
	if *memProfile != "" {
		path := *memProfile
		profileCleanup = append(profileCleanup, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		})
	}

	cmd, args := top.Arg(0), top.Args()[1:]
	switch cmd {
	case "table1":
		printTable1()
	case "table2":
		printTable2()
	case "classes":
		printClasses()
	case "table3", "table4", "table5", "table6":
		runTable(cmd, args)
	case "fig3", "fig4", "fig5", "fig6":
		runFigure(cmd, args)
	case "run":
		runOne(args)
	case "validate":
		runValidate(args)
	case "calibrate":
		runCalibrate()
	case "list":
		for _, n := range workloads.Names() {
			fmt.Printf("%-12s %s\n", n, workloads.Describe(n))
		}
	default:
		usage()
	}
	exit(0)
}

func runValidate(args []string) {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "simulation seed")
	minPass := fs.Int("min-pass", 0, "exit 1 when fewer than this many checks pass (the no-regression floor)")
	parseFlags(fs, args)
	checks := experiments.Validate(*seed)
	fmt.Print(experiments.FormatValidation(checks))
	if err := validationVerdict(checks, *minPass); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
}

// validationVerdict fails a validation run that passes fewer than 85% of
// the checks or fewer than minPass of them.
func validationVerdict(checks []experiments.Check, minPass int) error {
	passed := 0
	for _, c := range checks {
		if c.Pass {
			passed++
		}
	}
	if passed < minPass {
		return fmt.Errorf("validate: %d/%d checks passed, below the -min-pass floor of %d",
			passed, len(checks), minPass)
	}
	if experiments.ValidationPassRate(checks) < 0.85 {
		return fmt.Errorf("validate: %d/%d checks passed, below 85%%", passed, len(checks))
	}
	return nil
}

func runCalibrate() {
	a := calibrate.PaperAnchors()
	s, err := calibrate.Solve(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	fmt.Print(s.Describe(a))
	m := s.BuildModel()
	fmt.Printf("\nexpanded speed table (vs ST):\n")
	fmt.Printf("  diff  favoured  unfavoured\n")
	for d := 1; d <= 4; d++ {
		fmt.Printf("  ±%d    %.3f     %.3f\n", d, m.Favoured[d], m.Unfavoured[d])
	}
	fmt.Printf("  equal priorities: %.3f   idle sibling: %.3f\n", m.SMTBase, m.IdleSibling)
}

func tableWorkload(cmd string) string {
	switch cmd {
	case "table3", "fig3":
		return "metbench"
	case "table4", "fig4":
		return "metbenchvar"
	case "table5", "fig5":
		return "btmz"
	default:
		return "siesta"
	}
}

func printTable1() {
	fmt.Println("Table I — decode cycles assigned per priority difference")
	rows := [][]string{}
	for d := 0; d <= 4; d++ {
		a := power5.PrioLow + power5.Priority(d)
		r, ca, cb := power5.DecodeWindow(a, power5.PrioLow)
		rows = append(rows, []string{
			fmt.Sprintf("%d", d), fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", ca), fmt.Sprintf("%d", cb),
		})
	}
	fmt.Print(metrics.Table([]string{"Priority difference", "R", "Decode cycles (A)", "Decode cycles (B)"}, rows))
}

func printTable2() {
	fmt.Println("Table II — privilege level and or-nop per priority")
	rows := [][]string{}
	for p := power5.PrioThreadOff; p <= power5.PrioVeryHigh; p++ {
		nop := "-"
		if reg, ok := power5.OrNopRegister(p); ok {
			nop = fmt.Sprintf("or %d,%d,%d", reg, reg, reg)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", int(p)), p.String(),
			power5.RequiredPrivilege(p).String(), nop,
		})
	}
	fmt.Print(metrics.Table([]string{"Priority", "Level", "Privilege", "or-nop"}, rows))
}

func printClasses() {
	fmt.Println("Figure 1 — scheduling classes")
	fmt.Println("  standard 2.6.24 kernel:  rt -> fair (CFS) -> idle")
	fmt.Println("  HPCSched kernel:         rt -> hpc -> fair (CFS) -> idle")
	fmt.Println()
	fmt.Println("  The HPC class sits between real time and CFS: SCHED_FIFO/RR")
	fmt.Println("  semantics are preserved, SCHED_HPC outranks SCHED_NORMAL.")
}

// stderrProgress is the shared -progress reporter.
func stderrProgress(done, total int) {
	fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
	if done == total {
		fmt.Fprintln(os.Stderr)
	}
}

func runTable(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "simulation seed (base seed with -replicas)")
	seeds := fs.Int("seeds", 1, "replication count over the legacy seed ladder (>1 prints mean ± stddev)")
	replicas := fs.Int("replicas", 0, "replication count over seeds derived from -seed (prints mean ± stddev and 95% CI)")
	workers := fs.Int("parallel", 0, "worker pool size (0 = one per CPU)")
	progress := fs.Bool("progress", false, "report batch progress on stderr")
	var fv faults.FlagValue
	fs.Var(&fv, "faults", `fault-injection spec, e.g. "slow:n=2,factor=0.5;loss" (empty = none)`)
	replicaTimeout := fs.Duration("replica-timeout", 0, "per-replica wall-clock deadline; a replica over it is aborted and retried (0 = none)")
	maxRetries := fs.Int("max-retries", 0, "retries per failed replica, each on a fresh derived seed")
	stallTimeout := fs.Duration("stall-timeout", 0, "per-replica liveness watchdog: abort if the sim clock stalls this long (0 = off)")
	parseFlags(fs, args)
	wl := tableWorkload(cmd)

	// The whole command is one ScenarioSpec: the flags only fill it in.
	spec := experiments.ScenarioSpec{
		Name:     cmd,
		Workload: wl,
		Modes:    experiments.TableModes(wl),
		Seed:     *seed,
		Faults:   fv.Spec,
		Exec: experiments.ExecOptions{
			Workers: *workers,
			Timeout: *replicaTimeout, MaxRetries: *maxRetries,
			StallTimeout: *stallTimeout,
			// Fault-injected replicas may legitimately die; report them
			// instead of crashing the batch.
			Harden: !fv.Spec.Empty(),
		},
	}
	if *progress {
		spec.Exec.Progress = stderrProgress
	}
	switch {
	case *replicas > 1:
		spec.Seeds = experiments.SeedsFrom(*seed, *replicas)
	case *seeds > 1:
		spec.Seeds = experiments.DefaultSeeds(*seeds)
	}

	sr, err := experiments.RunScenario(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	switch {
	case len(spec.Seeds) > 0 && spec.Exec.Hardened():
		fmt.Print(experiments.DegradedTableStatsOf(sr).Format())
	case len(spec.Seeds) > 0:
		fmt.Print(experiments.TableStatsOf(sr).Format())
	default:
		tr := experiments.TableResult{Workload: wl, Rows: sr.Results}
		fmt.Print(tr.Format())
		if !fv.Spec.Empty() {
			// Print the applied fault timeline after the table.
			fmt.Printf("\nfault timeline (seed %d):\n%s\n", *seed, sr.Results[0].FaultTimeline)
		}
	}
}

func runFigure(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "simulation seed")
	width := fs.Int("width", 100, "timeline columns")
	prv := fs.Bool("prv", false, "emit Paraver-style .prv instead of ASCII")
	parseFlags(fs, args)
	wl := tableWorkload(cmd)
	for _, mode := range experiments.TableModes(wl) {
		r := experiments.Run(experiments.Config{
			Workload: wl, Mode: mode, Seed: *seed, Trace: true,
		})
		if *prv {
			fmt.Printf("# %s / %s\n%s", wl, mode, r.Recorder.ExportPRV())
			continue
		}
		fmt.Printf("--- %s — %s (exec %.2fs) ---\n", wl, mode, r.ExecTime.Seconds())
		fmt.Print(r.Recorder.Render(trace.RenderOptions{Width: *width, Prios: mode.UsesHPCClass()}))
		fmt.Println()
	}
}

func modeFromName(s string) (experiments.Mode, error) {
	switch strings.ToLower(s) {
	case "baseline", "cfs":
		return experiments.ModeBaseline, nil
	case "static":
		return experiments.ModeStatic, nil
	case "uniform":
		return experiments.ModeUniform, nil
	case "adaptive":
		return experiments.ModeAdaptive, nil
	case "hybrid":
		return experiments.ModeHybrid, nil
	case "policy-only", "hpconly":
		return experiments.ModeHPCOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

func runOne(args []string) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	wl := fs.String("workload", "metbench", "workload name")
	modeName := fs.String("mode", "uniform", "baseline|static|uniform|adaptive|hybrid|policy-only")
	seed := fs.Uint64("seed", 42, "simulation seed")
	doTrace := fs.Bool("trace", false, "render the execution trace")
	width := fs.Int("width", 100, "timeline columns")
	nodes := fs.Int("nodes", 1, "simulated cluster nodes (>1 scales the workload across a multi-node PDES run)")
	topology := fs.String("topology", "flat", "inter-node latency shape: flat|ring|star")
	var fv faults.FlagValue
	fs.Var(&fv, "faults", `fault-injection spec, e.g. "slow:n=2,factor=0.5;loss" (empty = none)`)
	parseFlags(fs, args)
	mode, err := modeFromName(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	r, err := experiments.RunCtx(context.Background(), experiments.Config{
		Workload: *wl, Mode: mode, Seed: *seed, Trace: *doTrace,
		Faults: fv.Spec,
		Nodes:  *nodes, Topology: *topology,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if r.Cluster.Nodes > 1 {
		fmt.Printf("%s under %s on %d nodes (%s): exec time %.2fs\n",
			*wl, mode, r.Cluster.Nodes, r.Cluster.Topology, r.ExecTime.Seconds())
		fmt.Print(experiments.ClusterTimeline(r))
		if *doTrace && r.Recorder != nil {
			fmt.Print(r.Recorder.Render(trace.RenderOptions{Width: *width, Prios: mode.UsesHPCClass()}))
		}
		return
	}
	fmt.Printf("%s under %s: exec time %.2fs, imbalance %.3f\n",
		*wl, mode, r.ExecTime.Seconds(), r.Imbalance)
	if r.FaultTimeline != "" {
		fmt.Printf("fault timeline:\n%s\n", r.FaultTimeline)
	}
	fmt.Print(metrics.FormatSummaries(r.Summaries))
	if r.HPC != nil {
		fmt.Printf("heuristic decisions: %d changes, %d holds\n", r.HPC.Changes, r.HPC.Holds)
	}
	if *doTrace {
		fmt.Print(r.Recorder.Render(trace.RenderOptions{Width: *width, Prios: mode.UsesHPCClass()}))
	}
}
