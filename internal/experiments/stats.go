package experiments

import (
	"fmt"

	"hpcsched/internal/batch"
	"hpcsched/internal/metrics"
)

// ModeStats aggregates one scheduler mode over several seeds: the
// replication discipline the paper's single-machine numbers lack.
type ModeStats struct {
	Mode      Mode
	Runs      int
	MeanExecS float64
	StdExecS  float64
	// CIExecS is the half-width of the 95% confidence interval of the
	// mean execution time (Student's t, sample variance).
	CIExecS float64
	// MeanImp/StdImp/CIImp are the improvement percentages versus the
	// same-seed baseline runs.
	MeanImp float64
	StdImp  float64
	CIImp   float64
}

// TableStats is a multi-seed reproduction of one table.
type TableStats struct {
	Workload string
	Seeds    []uint64
	Stats    []ModeStats
}

// TableStatsOf aggregates a table scenario per mode: sr must come from a
// replicated ScenarioSpec (explicit Seeds or Replicas) with the
// workload's TableModes (the canonical seed-major grid, baseline mode
// first). The aggregation reads
// the ordered results exactly as the serial loop did, so the output — down
// to the formatted bytes — is independent of the worker count.
func TableStatsOf(sr ScenarioResult) TableStats {
	ts := TableStats{Workload: sr.Spec.Workload, Seeds: statsSeeds(sr)}
	modes := sr.Spec.ModeList()
	execs := make(map[Mode][]float64, len(modes))
	imps := make(map[Mode][]float64, len(modes))
	for s := range ts.Seeds {
		rows := sr.Results[s*len(modes) : (s+1)*len(modes)]
		base := rows[0].ExecTime // the grid puts the baseline first
		for _, r := range rows {
			m := r.Config.Mode
			execs[m] = append(execs[m], r.ExecTime.Seconds())
			imps[m] = append(imps[m], 100*metrics.Improvement(base, r.ExecTime))
		}
	}
	for _, m := range modes {
		e := batch.Summarize(execs[m])
		i := batch.Summarize(imps[m])
		ts.Stats = append(ts.Stats, ModeStats{
			Mode: m, Runs: e.N,
			MeanExecS: e.Mean, StdExecS: e.Std, CIExecS: e.CI95,
			MeanImp: i.Mean, StdImp: i.Std, CIImp: i.CI95,
		})
	}
	return ts
}

// statsSeeds recovers the replica-seed axis of an executed scenario:
// explicit Seeds verbatim, otherwise (Replicas/Seed specs) the derived
// seeds — but only when the scenario actually ran, so a never-run result
// still aggregates to zero rows.
func statsSeeds(sr ScenarioResult) []uint64 {
	if len(sr.Spec.Seeds) > 0 || len(sr.Results) == 0 {
		return sr.Spec.Seeds
	}
	return sr.Spec.ReplicaSeeds()
}

// DegradedModeStats is ModeStats for a batch with failed replicas: the
// aggregate covers the seeds that finished, the rest are counted, never
// silently dropped.
type DegradedModeStats struct {
	ModeStats
	// Failed is how many of the mode's replicas did not finish.
	Failed int
}

// DegradedTableStats is a multi-seed table whose replicas ran hardened:
// failed or timed-out replicas are reported explicitly and the confidence
// intervals widen through the reduced replica count.
type DegradedTableStats struct {
	Workload string
	Seeds    []uint64
	Stats    []DegradedModeStats
	// Failures carries each failed replica's verdict, in index order.
	Failures []*batch.JobError
}

// DegradedTableStatsOf aggregates a hardened table scenario per mode. A
// seed whose baseline run failed cannot anchor improvement percentages, so
// that seed's surviving rows contribute execution times only.
func DegradedTableStatsOf(sr ScenarioResult) DegradedTableStats {
	ts := DegradedTableStats{
		Workload: sr.Spec.Workload, Seeds: statsSeeds(sr), Failures: sr.Failed,
	}
	modes := sr.Spec.ModeList()
	execs := make(map[Mode][]float64, len(modes))
	oks := make(map[Mode][]bool, len(modes))
	imps := make(map[Mode][]float64, len(modes))
	impOKs := make(map[Mode][]bool, len(modes))
	for s := range ts.Seeds {
		lo := s * len(modes)
		rows := sr.Results[lo : lo+len(modes)]
		rowOK := sr.OK[lo : lo+len(modes)]
		base := rows[0].ExecTime
		baseOK := rowOK[0]
		for i, r := range rows {
			m := modes[i]
			execs[m] = append(execs[m], r.ExecTime.Seconds())
			oks[m] = append(oks[m], rowOK[i])
			imp := 0.0
			if baseOK && rowOK[i] {
				imp = 100 * metrics.Improvement(base, r.ExecTime)
			}
			imps[m] = append(imps[m], imp)
			impOKs[m] = append(impOKs[m], baseOK && rowOK[i])
		}
	}
	for _, m := range modes {
		e := batch.SummarizeFinished(execs[m], oks[m])
		i := batch.SummarizeFinished(imps[m], impOKs[m])
		ts.Stats = append(ts.Stats, DegradedModeStats{
			ModeStats: ModeStats{
				Mode: m, Runs: e.N,
				MeanExecS: e.Mean, StdExecS: e.Std, CIExecS: e.CI95,
				MeanImp: i.Mean, StdImp: i.Std, CIImp: i.CI95,
			},
			Failed: e.Failed,
		})
	}
	return ts
}

// Format renders the degraded aggregate: per-mode finished/failed counts in
// the table, then one line per failed replica.
func (ts DegradedTableStats) Format() string {
	rows := make([][]string, 0, len(ts.Stats))
	for _, s := range ts.Stats {
		imp, ci := "—", "—"
		if s.Mode != ModeBaseline {
			imp = fmt.Sprintf("%+.1f%% ± %.1f", s.MeanImp, s.StdImp)
			ci = fmt.Sprintf("[%+.1f, %+.1f]", s.MeanImp-s.CIImp, s.MeanImp+s.CIImp)
		}
		status := fmt.Sprintf("%d/%d", s.Runs, s.Runs+s.Failed)
		rows = append(rows, []string{
			s.Mode.String(),
			status,
			fmt.Sprintf("%.2fs ± %.2f", s.MeanExecS, s.StdExecS),
			imp,
			ci,
		})
	}
	out := fmt.Sprintf("%s over %d seeds (hardened)\n%s", ts.Workload, len(ts.Seeds),
		metrics.Table([]string{"Test", "Finished", "Exec. Time", "vs base", "95% CI"}, rows))
	for _, je := range ts.Failures {
		out += fmt.Sprintf("\nreplica %d: %s after %d attempt(s): %v",
			je.Index, je.Kind, je.Attempts, je.Err)
	}
	return out
}

// Format renders the aggregate table with 95% confidence intervals.
func (ts TableStats) Format() string {
	rows := make([][]string, 0, len(ts.Stats))
	for _, s := range ts.Stats {
		imp, ci := "—", "—"
		if s.Mode != ModeBaseline {
			imp = fmt.Sprintf("%+.1f%% ± %.1f", s.MeanImp, s.StdImp)
			ci = fmt.Sprintf("[%+.1f, %+.1f]", s.MeanImp-s.CIImp, s.MeanImp+s.CIImp)
		}
		rows = append(rows, []string{
			s.Mode.String(),
			fmt.Sprintf("%.2fs ± %.2f", s.MeanExecS, s.StdExecS),
			imp,
			ci,
		})
	}
	return fmt.Sprintf("%s over %d seeds\n%s", ts.Workload, len(ts.Seeds),
		metrics.Table([]string{"Test", "Exec. Time", "vs base", "95% CI"}, rows))
}

// DefaultSeeds returns n deterministic replication seeds.
func DefaultSeeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 42 + uint64(i)*1001
	}
	return out
}
