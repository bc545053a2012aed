package perf

import (
	"fmt"
	"strings"
)

// Metric names used in gate verdicts.
const (
	MetricRate   = "events/sec"   // throughput, gated by a relative floor
	MetricAllocs = "allocs/event" // allocator pressure, gated by an absolute ceiling
	// MetricElided is the windows_elided counter cluster scenarios attach:
	// the cluster lookahead must actually collapse sync windows, so a
	// fresh report whose cluster scenarios elide nothing fails the gate —
	// the event-driven horizon has silently degenerated to floor cadence.
	MetricElided = "windows_elided"
)

// Tolerance bounds how far a fresh report may fall from the baseline
// before the gate fails.
type Tolerance struct {
	// Rate is the allowed fractional events/sec drop: 0.15 lets a shared
	// scenario run 15% slower than the baseline before failing. Negative
	// values clamp to 0.
	Rate float64
	// Allocs is the allowed absolute allocs/event growth: 0.01 fails any
	// scenario allocating more than one extra object per hundred events
	// over the baseline — tight enough that losing a pooled hot path
	// (which costs ≥1 alloc per event or per message) cannot hide, loose
	// enough for measurement jitter on nearly-zero baselines.
	Allocs float64
}

// DefaultTolerance is the CI gate configuration.
func DefaultTolerance() Tolerance { return Tolerance{Rate: 0.15, Allocs: 0.01} }

// Regression is one scenario metric that fell outside the perf gate.
type Regression struct {
	Scenario string
	Metric   string  // MetricRate or MetricAllocs
	Base     float64 // baseline value of the metric
	Got      float64 // measured value
	// Bound is the violated limit: the minimum events/sec (floor) for
	// MetricRate, the maximum allocs/event (ceiling) for MetricAllocs.
	Bound float64
}

func (r Regression) String() string {
	if r.Metric == MetricAllocs {
		return fmt.Sprintf("%s: %.4f allocs/event vs baseline %.4f (ceiling %.4f)",
			r.Scenario, r.Got, r.Base, r.Bound)
	}
	if r.Metric == MetricElided {
		return fmt.Sprintf("%s: windows_elided = %.0f; the cluster lookahead collapsed no sync windows",
			r.Scenario, r.Got)
	}
	return fmt.Sprintf("%s: %.0f events/sec vs baseline %.0f (%.2fx, gate %.2fx)",
		r.Scenario, r.Got, r.Base, r.Got/r.Base, r.Bound/r.Base)
}

// comparison is one shared scenario's verdict on both metrics; matchReports
// is the single source of truth Gate and FormatGate both render from.
type comparison struct {
	scenario           string
	baseRate, rate     float64
	rateFloor          float64 // baseRate × (1 - tol.Rate)
	baseAllocs, allocs float64
	allocCeiling       float64 // baseAllocs + tol.Allocs
	rateBad, allocsBad bool
}

// matchReports pairs every scenario present in both reports and computes
// its metric verdicts. Scenarios only one report knows (new benchmarks,
// retired ones) cannot regress and are skipped, as are zero-rate baselines,
// so the suite can grow without invalidating old baselines.
func matchReports(base, after Report, tol Tolerance) []comparison {
	if tol.Rate < 0 {
		tol.Rate = 0
	}
	if tol.Allocs < 0 {
		tol.Allocs = 0
	}
	var out []comparison
	for _, bm := range base.Measurements {
		for _, am := range after.Measurements {
			if am.Scenario != bm.Scenario || bm.EventsPerSec <= 0 {
				continue
			}
			c := comparison{
				scenario:     bm.Scenario,
				baseRate:     bm.EventsPerSec,
				rate:         am.EventsPerSec,
				rateFloor:    bm.EventsPerSec * (1 - tol.Rate),
				baseAllocs:   bm.AllocsPerEvent,
				allocs:       am.AllocsPerEvent,
				allocCeiling: bm.AllocsPerEvent + tol.Allocs,
			}
			c.rateBad = c.rate < c.rateFloor
			c.allocsBad = c.allocs > c.allocCeiling
			out = append(out, c)
		}
	}
	return out
}

// Gate compares a fresh report against a committed baseline and returns
// every violation: a shared scenario whose events/sec dropped below
// (1 - tol.Rate) of the baseline, or whose allocs/event grew more than
// tol.Allocs above it. The default tolerances (DefaultTolerance) are the
// CI configuration: wide enough for same-machine noise, tight enough that
// a lost optimisation — the smallest committed throughput win is ~1.2x,
// and any un-pooled hot path costs ≥1 alloc per event — cannot hide.
func Gate(base, after Report, tol Tolerance) []Regression {
	var out []Regression
	for _, c := range matchReports(base, after, tol) {
		if c.rateBad {
			out = append(out, Regression{
				Scenario: c.scenario, Metric: MetricRate,
				Base: c.baseRate, Got: c.rate, Bound: c.rateFloor,
			})
		}
		if c.allocsBad {
			out = append(out, Regression{
				Scenario: c.scenario, Metric: MetricAllocs,
				Base: c.baseAllocs, Got: c.allocs, Bound: c.allocCeiling,
			})
		}
	}
	out = append(out, gateCounters(after)...)
	return out
}

// gateCounters checks the fresh report's counter invariants: any scenario
// that reports a windows_elided diagnostic ran the cluster lookahead, and
// a lookahead that elides zero windows has regressed to floor cadence (the
// exact count moves with any change to the executor, so only > 0 is
// asserted — independent of any baseline).
func gateCounters(after Report) []Regression {
	var out []Regression
	for _, m := range after.Measurements {
		if v, ok := m.Counters[MetricElided]; ok && v <= 0 {
			out = append(out, Regression{
				Scenario: m.Scenario, Metric: MetricElided,
				Got: float64(v), Bound: 1,
			})
		}
	}
	return out
}

// FormatGate renders a gate verdict for CI logs: every shared scenario
// with its throughput ratio and allocs/event delta, regressions marked. It
// renders the same comparison pass Gate decides from, so the printed
// verdict and the exit code cannot disagree.
func FormatGate(base, after Report, tol Tolerance) string {
	var b strings.Builder
	cs := matchReports(base, after, tol)
	fmt.Fprintf(&b, "perf gate: %q vs baseline %q (rate floor %.2fx, alloc ceiling +%.3f)\n",
		after.Label, base.Label, 1-max(tol.Rate, 0), max(tol.Allocs, 0))
	for _, c := range cs {
		verdict := "ok"
		if c.rateBad || c.allocsBad {
			verdict = "REGRESSION"
			if c.rateBad && c.allocsBad {
				verdict = "REGRESSION (rate+allocs)"
			} else if c.allocsBad {
				verdict = "REGRESSION (allocs)"
			}
		}
		fmt.Fprintf(&b, "  %-24s %12.0f → %12.0f events/sec  %.2fx  %7.4f → %7.4f allocs/event  %s\n",
			c.scenario, c.baseRate, c.rate, c.rate/c.baseRate,
			c.baseAllocs, c.allocs, verdict)
	}
	for _, m := range after.Measurements {
		if v, ok := m.Counters[MetricElided]; ok {
			verdict := "ok"
			if v <= 0 {
				verdict = "REGRESSION (no windows elided)"
			}
			fmt.Fprintf(&b, "  %-24s windows=%d windows_elided=%d  %s\n",
				m.Scenario, m.Counters["windows"], v, verdict)
		}
	}
	return b.String()
}
