// Package perf is the measurement harness behind cmd/bench: it runs a
// fixed suite of simulation scenarios, measures throughput (events/sec,
// ns/event) and allocator pressure (allocs/event, bytes/event), and emits
// the BENCH_<label>.json files that seed the repository's performance
// trajectory. Every perf-sensitive PR runs the suite before and after and
// commits both reports, so regressions are visible in review instead of in
// production.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Scenario is one measured workload. Run executes the scenario once and
// returns the number of simulation events fired — the unit all metrics are
// normalised by. Scenarios must be deterministic: the harness asserts that
// every repetition fires the same event count.
type Scenario struct {
	Name  string
	Desc  string
	Quick bool // part of the -quick smoke suite
	Run   func() uint64

	// Counters, when non-nil, is called once after the measurement runs
	// and its values are attached to the Measurement verbatim (typically
	// stashed by the Run closure from its last repetition). Counters are
	// diagnostics — cluster sync-window counts, elision estimates — which
	// describe the executor rather than the simulation, so they are
	// deliberately excluded from the deterministic event count the harness
	// asserts on.
	Counters func() map[string]int64
}

// Measurement is the result of measuring one scenario.
type Measurement struct {
	Scenario       string  `json:"scenario"`
	Desc           string  `json:"desc,omitempty"`
	Runs           int     `json:"runs"`
	Events         uint64  `json:"events_per_run"`
	WallNS         int64   `json:"wall_ns"` // best-of-runs wall clock
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"` // mean over runs
	BytesPerEvent  float64 `json:"bytes_per_event"`  // mean over runs

	// Counters carries scenario diagnostics (see Scenario.Counters), e.g.
	// cluster sync windows executed and windows elided by lookahead.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// Report is one emitted BENCH file.
type Report struct {
	Label        string        `json:"label"`
	GeneratedAt  string        `json:"generated_at"`
	GoVersion    string        `json:"go_version"`
	GOOS         string        `json:"goos"`
	GOARCH       string        `json:"goarch"`
	NumCPU       int           `json:"num_cpu"`
	Measurements []Measurement `json:"measurements"`
}

// Measure runs s runs times (after a warm-up run when runs > 1) and
// aggregates: best wall time for throughput, mean allocator deltas.
func Measure(s Scenario, runs int) Measurement {
	if runs < 1 {
		runs = 1
	}
	// Always warm up, even for single-run (-quick) measurements: the first
	// run pays one-time costs (event-pool chunks, initial heap growth)
	// that would otherwise pollute allocs/event and make quick CI reports
	// look regressed against warmed multi-run ones.
	s.Run()
	var (
		events      uint64
		bestWall    time.Duration = 1<<63 - 1
		allocsTotal uint64
		bytesTotal  uint64
		m0, m1      runtime.MemStats
	)
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		ev := s.Run()
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if i == 0 {
			events = ev
		} else if ev != events {
			panic(fmt.Sprintf("perf: scenario %q is nondeterministic: %d events then %d",
				s.Name, events, ev))
		}
		if wall < bestWall {
			bestWall = wall
		}
		allocsTotal += m1.Mallocs - m0.Mallocs
		bytesTotal += m1.TotalAlloc - m0.TotalAlloc
	}
	m := Measurement{
		Scenario: s.Name,
		Desc:     s.Desc,
		Runs:     runs,
		Events:   events,
		WallNS:   bestWall.Nanoseconds(),
	}
	if events > 0 {
		m.EventsPerSec = float64(events) / bestWall.Seconds()
		m.NsPerEvent = float64(bestWall.Nanoseconds()) / float64(events)
		m.AllocsPerEvent = float64(allocsTotal) / float64(runs) / float64(events)
		m.BytesPerEvent = float64(bytesTotal) / float64(runs) / float64(events)
	}
	if s.Counters != nil {
		m.Counters = s.Counters()
	}
	return m
}

// RunSuite measures every scenario and assembles the report.
func RunSuite(scenarios []Scenario, runs int, label string) Report {
	r := Report{
		Label:       label,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
	}
	for _, s := range scenarios {
		r.Measurements = append(r.Measurements, Measure(s, runs))
	}
	return r
}

// FileName returns the canonical BENCH file name for a label.
func FileName(label string) string {
	return fmt.Sprintf("BENCH_%s.json", sanitizeLabel(label))
}

func sanitizeLabel(label string) string {
	var b strings.Builder
	for _, r := range label {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "unnamed"
	}
	return b.String()
}

// WriteFile writes the report as indented JSON into dir and returns the
// path.
func (r Report) WriteFile(dir string) (string, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(r.Label))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadFile loads a previously emitted report (for comparisons).
func ReadFile(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(data, &r)
	return r, err
}

// Format renders the report as a human-readable table.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf suite %q — %s %s/%s, %d CPUs\n",
		r.Label, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Fprintf(&b, "%-24s %12s %12s %10s %12s %12s\n",
		"scenario", "events", "events/sec", "ns/event", "allocs/event", "bytes/event")
	for _, m := range r.Measurements {
		fmt.Fprintf(&b, "%-24s %12d %12.0f %10.1f %12.4f %12.1f\n",
			m.Scenario, m.Events, m.EventsPerSec, m.NsPerEvent,
			m.AllocsPerEvent, m.BytesPerEvent)
		if len(m.Counters) > 0 {
			keys := make([]string, 0, len(m.Counters))
			for k := range m.Counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintf(&b, "%-24s", "")
			for _, k := range keys {
				fmt.Fprintf(&b, "  %s=%d", k, m.Counters[k])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Speedup compares the events/sec of the same scenario across two reports;
// ok is false when the scenario is missing from either.
func Speedup(base, after Report, scenario string) (float64, bool) {
	find := func(r Report) (Measurement, bool) {
		for _, m := range r.Measurements {
			if m.Scenario == scenario {
				return m, true
			}
		}
		return Measurement{}, false
	}
	b, okB := find(base)
	a, okA := find(after)
	if !okB || !okA || b.EventsPerSec == 0 {
		return 0, false
	}
	return a.EventsPerSec / b.EventsPerSec, true
}
