package selector

import (
	"context"
	"math"

	"hpcsched/internal/batch"
	"hpcsched/internal/experiments"
	"hpcsched/internal/faults"
	"hpcsched/internal/sim"
)

// Scenario is one cell of a perturbation grid: a workload under a fault
// spec (transient perturbations, persistent heterogeneity, or both).
type Scenario struct {
	// Name labels the scenario in the report.
	Name string
	// Workload is one of workloads.Names().
	Workload string
	// Faults is the perturbation request; FaultText is its source string
	// (kept for display).
	Faults    faults.Spec
	FaultText string
	// Horizon bounds each run (0 → the experiment default).
	Horizon sim.Time
	// Tweak, when non-nil, adjusts each replica config before it runs
	// (the CI smoke grid shrinks workloads through it).
	Tweak func(*experiments.Config)
}

// Options configures a selection sweep. Zero values select all six
// scheduler modes, three default replica seeds, and a soft pool.
type Options struct {
	Modes []experiments.Mode
	Seeds []uint64
	Exec  experiments.ExecOptions
}

// AllModes lists every scheduler mode, in the canonical report order.
func AllModes() []experiments.Mode {
	return []experiments.Mode{
		experiments.ModeBaseline, experiments.ModeStatic,
		experiments.ModeUniform, experiments.ModeAdaptive,
		experiments.ModeHybrid, experiments.ModeHPCOnly,
	}
}

// PhaseReport aggregates one phase across replica seeds.
type PhaseReport struct {
	// Start/End bound the phase; End of the last phase is the maximum
	// run end across modes and seeds (Open marks it).
	Start, End sim.Time
	Open       bool
	// MeanRate[m] is mode m's mean capability rate over the seeds where
	// it was still running in this phase: completed nominal work per
	// sim-second (≈ effective parallel speedup of the whole job).
	MeanRate []float64
	// Done[m] reports that mode m had already finished before this phase
	// began, in every seed.
	Done []bool
	// Wins[m] counts the seeds whose phase winner was mode m.
	Wins []int
	// Winner is the index (into the report's mode list) with the most
	// wins; ties break toward the earlier mode. -1 when no seed voted.
	Winner int
}

// ScenarioReport is one scenario's scored sweep.
type ScenarioReport struct {
	Scenario Scenario
	Modes    []experiments.Mode
	Seeds    []uint64
	// Skipped counts seeds dropped because a hardened pool failed at
	// least one of their mode runs (zero on soft pools).
	Skipped int
	// Boundaries are the fault-schedule phase boundaries (shared by all
	// replicas through the pinned fault seed).
	Boundaries []sim.Time
	Phases     []PhaseReport
	// Exec[m] summarises mode m's execution time (seconds) over seeds.
	Exec []batch.Summary
	// BestFixed is the mode index with the lowest mean execution time.
	BestFixed int
	// Oracle summarises the switch-at-phase-boundary composite estimate
	// (seconds) over seeds: per seed, the total work is replayed through
	// the phases at each phase's best observed rate, never exceeding the
	// seed's best fixed-mode time.
	Oracle batch.Summary
}

// Report is a full selection sweep over a scenario grid.
type Report struct {
	Modes     []experiments.Mode
	Seeds     []uint64
	Scenarios []ScenarioReport
}

// Run executes the selection sweep: every (scenario × seed × mode)
// replica on one shared pool, then per-phase scoring. The flattening is
// scenario-major, seed-major, mode-minor, so results are deterministic at
// any worker count; the report is a pure function of the inputs.
func Run(ctx context.Context, scenarios []Scenario, opts Options) (*Report, error) {
	modes := opts.Modes
	if len(modes) == 0 {
		modes = AllModes()
	}
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = experiments.DefaultSeeds(3)
	}
	if len(scenarios) == 0 {
		return &Report{Modes: modes, Seeds: seeds}, nil
	}

	// Expand the grid. Each scenario pins its fault timeline to the first
	// replica seed so every mode and seed shares one phase partition.
	var cfgs []experiments.Config
	var probes []*runProbe
	bounds := make([][]sim.Time, len(scenarios))
	for si := range scenarios {
		sc := scenarios[si]
		fseed := seeds[0]
		schedule := faults.Compile(sc.Faults, fseed, experiments.MachineCPUs)
		bounds[si] = Partition(schedule)
		for _, seed := range seeds {
			for _, m := range modes {
				p := newRunProbe(bounds[si])
				cfg := experiments.Config{
					Workload:  sc.Workload,
					Mode:      m,
					Seed:      seed,
					Faults:    sc.Faults,
					FaultSeed: &fseed,
					Horizon:   sc.Horizon,
					Probe:     p.install,
				}
				if sc.Tweak != nil {
					sc.Tweak(&cfg)
				}
				cfgs = append(cfgs, cfg)
				probes = append(probes, p)
			}
		}
	}

	results, ok, _, err := experiments.RunConfigs(ctx, cfgs, opts.Exec)
	if err != nil {
		return nil, err
	}

	rep := &Report{Modes: modes, Seeds: seeds}
	per := len(seeds) * len(modes)
	for si := range scenarios {
		lo := si * per
		rep.Scenarios = append(rep.Scenarios, scoreScenario(
			scenarios[si], bounds[si], modes, seeds,
			results[lo:lo+per], ok[lo:lo+per], probes[lo:lo+per]))
	}
	return rep, nil
}

// scoreScenario turns one scenario's replica results into the per-phase
// winner table and the oracle composite.
func scoreScenario(sc Scenario, bounds []sim.Time, modes []experiments.Mode,
	seeds []uint64, results []experiments.Result, ok []bool, probes []*runProbe) ScenarioReport {

	M := len(modes)
	rep := ScenarioReport{
		Scenario: sc, Modes: modes, Seeds: seeds, Boundaries: bounds,
		BestFixed: -1,
	}
	nPhases := len(bounds) + 1

	type seedScore struct {
		rates [][]float64 // [phase][mode]; +Inf = finished before phase start
		maxT  sim.Time
	}
	var scores []seedScore
	execs := make([][]float64, M) // [mode][valid seed]
	var composites []float64

	for s := range seeds {
		lo := s * M
		valid := true
		for m := 0; m < M; m++ {
			if !ok[lo+m] {
				valid = false
			}
		}
		if !valid {
			rep.Skipped++
			continue
		}
		rows := results[lo : lo+M]
		rowProbes := probes[lo : lo+M]

		var maxT, minT sim.Time
		totals := make([]float64, M)
		for m, r := range rows {
			if r.ExecTime > maxT {
				maxT = r.ExecTime
			}
			if m == 0 || r.ExecTime < minT {
				minT = r.ExecTime
			}
			var w float64
			for _, t := range r.Tasks {
				w += t.SumWork // settled: the task exited (or the horizon hit)
			}
			totals[m] = w
			execs[m] = append(execs[m], r.ExecTime.Seconds())
		}

		phases := Phases(bounds, maxT)
		ss := seedScore{maxT: maxT, rates: make([][]float64, nPhases)}
		for i, ph := range phases {
			ss.rates[i] = make([]float64, M)
			for m := range modes {
				T := rows[m].ExecTime
				if T <= ph.Start {
					// Finished before the phase began: infinitely
					// capable for what little it has left (nothing).
					ss.rates[i][m] = math.Inf(1)
					continue
				}
				end := ph.End
				if T < end {
					end = T
				}
				w0 := 0.0
				if i > 0 {
					w0 = rowProbes[m].workAt(i-1, totals[m])
				}
				w1 := totals[m]
				if i < len(bounds) {
					w1 = rowProbes[m].workAt(i, totals[m])
				}
				dur := end - ph.Start
				if dur <= 0 {
					ss.rates[i][m] = math.Inf(1)
					continue
				}
				rate := (w1 - w0) / float64(dur)
				if rate < 0 {
					rate = 0
				}
				ss.rates[i][m] = rate
			}
		}
		scores = append(scores, ss)
		composites = append(composites, oracleComposite(phases, ss.rates, totals, minT))
	}

	// Aggregate phases across seeds.
	var endMax sim.Time
	for _, ss := range scores {
		if ss.maxT > endMax {
			endMax = ss.maxT
		}
	}
	phases := Phases(bounds, endMax)
	for i, ph := range phases {
		pr := PhaseReport{
			Start: ph.Start, End: ph.End, Open: i == nPhases-1,
			MeanRate: make([]float64, M),
			Done:     make([]bool, M),
			Wins:     make([]int, M),
			Winner:   -1,
		}
		for m := 0; m < M; m++ {
			sum, n := 0.0, 0
			for _, ss := range scores {
				if r := ss.rates[i][m]; !math.IsInf(r, 1) {
					sum += r
					n++
				}
			}
			if n == 0 {
				pr.Done[m] = true
				pr.MeanRate[m] = math.NaN()
			} else {
				pr.MeanRate[m] = sum / float64(n)
			}
		}
		for _, ss := range scores {
			if w := phaseWinner(ss.rates[i]); w >= 0 {
				pr.Wins[w]++
			}
		}
		best := -1
		for m := 0; m < M; m++ {
			if pr.Wins[m] > 0 && (best < 0 || pr.Wins[m] > pr.Wins[best]) {
				best = m
			}
		}
		pr.Winner = best
		rep.Phases = append(rep.Phases, pr)
	}

	rep.Exec = make([]batch.Summary, M)
	for m := 0; m < M; m++ {
		rep.Exec[m] = batch.Summarize(execs[m])
		if rep.Exec[m].N > 0 && (rep.BestFixed < 0 || rep.Exec[m].Mean < rep.Exec[rep.BestFixed].Mean) {
			rep.BestFixed = m
		}
	}
	rep.Oracle = batch.Summarize(composites)
	return rep
}

// phaseWinner picks the best mode of one phase in one seed: the highest
// rate wins, a finished mode (+Inf) beats any running one, and ties break
// toward the earlier mode. A phase every mode had already finished before
// casts no vote (-1) — it only exists because a slower seed stretched the
// table.
func phaseWinner(rates []float64) int {
	allDone := true
	for _, r := range rates {
		if !math.IsInf(r, 1) {
			allDone = false
			break
		}
	}
	if allDone {
		return -1
	}
	best := 0
	for m := 1; m < len(rates); m++ {
		if rates[m] > rates[best] { // strict: ties break toward earlier modes
			best = m
		}
	}
	return best
}

// oracleComposite estimates the execution time of an oracle that switches
// to each phase's best mode at the phase boundary: the seed's total work
// (the largest across modes — they compute the same job) is consumed
// phase by phase at the best finite observed rate. The estimate never
// beats physics but may beat every fixed mode; it is clamped to the best
// fixed time so measurement noise cannot make the oracle worse than just
// picking the best fixed mode.
func oracleComposite(phases []Phase, rates [][]float64, totals []float64, bestFixed sim.Time) float64 {
	work := 0.0
	for _, w := range totals {
		if w > work {
			work = w
		}
	}
	t := phases[len(phases)-1].End // fallback: the slowest mode's end
	remaining := work
	for i, ph := range phases {
		r := 0.0
		for _, x := range rates[i] {
			if !math.IsInf(x, 1) && x > r {
				r = x
			}
		}
		if r <= 0 {
			continue
		}
		capacity := r * float64(ph.End-ph.Start)
		if remaining <= capacity {
			t = ph.Start + sim.Time(remaining/r)
			remaining = 0
			break
		}
		remaining -= capacity
	}
	est := t.Seconds()
	if bf := bestFixed.Seconds(); est > bf {
		est = bf
	}
	return est
}

// winnerName renders a winner index.
func winnerName(modes []experiments.Mode, idx int) string {
	if idx < 0 {
		return "—"
	}
	return modes[idx].String()
}
