package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hpcsched/internal/experiments"
)

// goldenSeed is the seed the committed table goldens were captured at.
const goldenSeed = 42

// goldenFiles are the committed renderings of Tables III–VI, by workload.
var goldenFiles = map[string]string{
	"metbench":    "golden_table3.txt",
	"metbenchvar": "golden_table4.txt",
	"btmz":        "golden_table5.txt",
	"siesta":      "golden_table6.txt",
}

// bench drives one benchmark run of one workload and keeps the tally of
// attempted and failed simulation runs.
type bench struct {
	ctx       context.Context
	w         workload
	sz        sizing
	seed      uint64
	dur       time.Duration
	goldenDir string

	runs     int
	problems []string
	ref      *unit // first full plain unit: the digest every other is held to
}

// sample is one measured unit.
type sample struct {
	wall   time.Duration
	events uint64
	allocs uint64
	u      unit
}

func (s sample) nsPerEvent() float64 {
	return float64(s.wall.Nanoseconds()) / float64(max(s.events, 1))
}

func (b *bench) failed() int { return len(b.problems) }

// unit runs one unit and tallies its runs and failures. A panic escaping
// the simulator on this goroutine fails the unit instead of the process.
func (b *bench) unit(p params) (u unit) {
	p.seed = b.seed
	defer func() {
		if v := recover(); v != nil {
			u.failf("panic: %v", v)
			u.runs = max(u.runs, 1)
		}
		b.runs += u.runs
		b.problems = append(b.problems, u.problems...)
	}()
	return b.w.run(b.ctx, b.sz, p)
}

// fail records a failed output check; it counts as one failed run.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// measure runs units back to back until d has elapsed and at least min
// units ran. Each unit starts from a collected heap, and its wall time,
// events and heap allocations are recorded.
func (b *bench) measure(d time.Duration, min int, p params) []sample {
	var out []sample
	start := time.Now()
	for len(out) < min || time.Since(start) < d {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		u := b.unit(p)
		runtime.ReadMemStats(&m1)
		out = append(out, sample{wall: u.wall, events: u.c.events(), allocs: m1.Mallocs - m0.Mallocs, u: u})
		b.compare(u, p)
	}
	return out
}

// compare holds every unit to the first full plain unit's outputs: a
// shard-, worker- or instrumentation-dependent output is a failure.
func (b *bench) compare(u unit, p params) {
	if p.setup {
		return
	}
	if b.ref == nil {
		b.ref = &u
		return
	}
	switch {
	case p.traceOff:
		if u.core != b.ref.core {
			b.fail("%s: simulation outputs differ with interval recording off", b.w.name)
		}
	case u.digest != b.ref.digest:
		var differ []int
		for i := range min(len(u.replicas), len(b.ref.replicas)) {
			if u.replicas[i] != b.ref.replicas[i] {
				differ = append(differ, i)
			}
		}
		b.fail("%s: outputs differ from the first run's (serial=%v instrumented=%v, replicas %v)",
			b.w.name, p.serial, p.shims != nil, differ)
	}
}

// checkGoldens compares the reference tables with the committed goldens at
// the seed they were captured at.
func (b *bench) checkGoldens() {
	if b.w.name != "paper-tables" || b.seed != goldenSeed || b.ref == nil {
		return
	}
	for i, wl := range b.sz.tables {
		want, err := os.ReadFile(filepath.Join(b.goldenDir, goldenFiles[wl]))
		if err != nil {
			b.fail("golden %s: %v", wl, err)
			continue
		}
		if i >= len(b.ref.tables) || b.ref.tables[i] != string(want) {
			b.fail("golden %s: table output differs from %s", wl, goldenFiles[wl])
		}
	}
}

// scalingPoint runs the serial variant (cluster at 1 shard, sweep at 1
// worker) once, checks it against the reference, and returns it. The
// paper-tables workload has none.
func (b *bench) scalingPoint() (unit, bool) {
	if b.w.name == "paper-tables" {
		return unit{}, false
	}
	p := params{serial: true}
	u := b.unit(p)
	b.compare(u, p)
	return u, true
}

// setupTime is the median wall time of set-up-only units (every run
// bounded at 1 simulated ns).
func (b *bench) setupTime() float64 {
	const minReps, span = 15, 600 * time.Millisecond
	s := b.measure(span, minReps, params{setup: true})
	return medianOf(s, func(s sample) float64 { return s.wall.Seconds() })
}

func medianOf(s []sample, f func(sample) float64) float64 {
	v := make([]float64, len(s))
	for i := range s {
		v[i] = f(s[i])
	}
	return median(v)
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// paperChecksPassed counts experiments.Validate's checks within tolerance.
func paperChecksPassed(seed uint64) (passed, total int) {
	checks := experiments.Validate(seed)
	for _, c := range checks {
		if c.Pass {
			passed++
		}
	}
	return passed, len(checks)
}
