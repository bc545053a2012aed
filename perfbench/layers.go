package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcsched/internal/experiments"
	"hpcsched/internal/faults"
	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/proc"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
)

// counts are the per-layer work counters of one workload unit, read after
// the runs from the simulator's public counters (and, on instrumented
// units, from the shims below).
type counts struct {
	fired, cancelled, ticksElided uint64
	wakeups, migrations           int64
	msgs, bytes, remote           int64
	windows, windowsElided        int64
	faultActions, retried         int
	intervals, prioChanges        int
	prvBytes                      int
}

// events is the event count internal/perf normalises by: fired engine
// events plus the tick instants the tickless machinery elided.
func (c counts) events() uint64 { return c.fired + c.ticksElided }

func (c *counts) addKernel(k *sched.Kernel) {
	st := k.Engine.Stats()
	c.fired += st.Fired
	c.cancelled += st.Cancelled
	c.ticksElided += uint64(k.TicksElided())
	for _, t := range k.Tasks() {
		c.wakeups += t.WakeupCount
		c.migrations += t.Migrations
	}
}

// addResult folds one finished run into the counters.
func (c *counts) addResult(r experiments.Result) {
	if r.Cluster != nil {
		for _, k := range r.Cluster.Kernels {
			c.addKernel(k)
		}
		c.windows += r.Cluster.Windows
		c.windowsElided += r.Cluster.WindowsElided
		for _, rec := range r.Cluster.Recorders {
			if rec != nil {
				c.addTraces(rec.Traces())
			}
		}
	} else if r.Kernel != nil {
		c.addKernel(r.Kernel)
		if r.Recorder != nil {
			c.addTraces(r.Recorder.Traces())
		}
	}
	if r.World != nil {
		c.msgs += r.World.MsgCount()
		c.bytes += r.World.MsgBytes()
		c.remote += r.World.RemoteMsgCount()
	}
	if r.FaultTimeline != "" {
		c.faultActions += 1 + strings.Count(r.FaultTimeline, "\n")
	}
}

func (c *counts) addTraces(tts []*trace.TaskTrace) {
	for _, tt := range tts {
		c.intervals += tt.Len()
		c.prioChanges += len(tt.Prios)
	}
}

// shims instrument a run from outside through the public hooks of
// experiments.Config and ExecOptions: a counting sched.Tracer installed by
// Config.Prelude (only on runs without a trace recorder, which owns the
// tracer slot), a counting Config.PerfModel wrapper, and an
// ExecOptions.Progress callback. None of them changes what is simulated;
// the benchmark checks that by comparing digests with plain runs.
type shims struct {
	speedEvals atomic.Int64
	completed  atomic.Int64

	mu      sync.Mutex
	tracers []*countTracer
}

// configure installs the shims on cfg.
func (s *shims) configure(cfg *experiments.Config) {
	inner := cfg.PerfModel
	if inner == nil {
		inner = power5.NewCalibratedPerfModel()
	}
	cfg.PerfModel = &countingPerf{inner: inner, n: &s.speedEvals}
	if !cfg.Trace {
		cfg.Prelude = func(k *sched.Kernel) {
			t := &countTracer{last: map[*sched.Task]int{}}
			k.SetTracer(t)
			s.mu.Lock()
			s.tracers = append(s.tracers, t)
			s.mu.Unlock()
		}
	}
}

func (s *shims) progress(done, total int) { s.completed.Add(1) }

// tracerTotals sums the counting tracers installed since the last call and
// forgets them.
func (s *shims) tracerTotals() (transitions, prioChanges int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tracers {
		transitions += t.transitions
		prioChanges += t.prioChanges
	}
	s.tracers = nil
	return transitions, prioChanges
}

// countTracer counts scheduler state transitions and hardware-priority
// changes. A priority record equal to the task's previous one is not a
// change (the trace recorder drops those too).
type countTracer struct {
	transitions, prioChanges int64
	last                     map[*sched.Task]int
}

func (t *countTracer) TaskState(sim.Time, *sched.Task, sched.State, int) { t.transitions++ }

func (t *countTracer) TaskHWPrio(_ sim.Time, task *sched.Task, prio int) {
	if p, ok := t.last[task]; ok && p == prio {
		return
	}
	t.last[task] = prio
	t.prioChanges++
}

// countingPerf counts speed evaluations. Cluster nodes share one Config
// PerfModel across shards, so the counter is atomic.
type countingPerf struct {
	inner power5.PerfModel
	n     *atomic.Int64
}

func (m *countingPerf) Speed(own, sib power5.Priority, sibBusy bool) float64 {
	m.n.Add(1)
	return m.inner.Speed(own, sib, sibBusy)
}

// rtSnapshot is a reading of the Go runtime's CPU and scheduling metrics.
// The CPU classes are only refreshed at a GC, so every snapshot forces one.
type rtSnapshot struct {
	gc, idle, total float64
	lat             *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnapshot {
	runtime.GC()
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnapshot{
		gc:    s[0].Value.Float64(),
		idle:  s[1].Value.Float64(),
		total: s[2].Value.Float64(),
		lat:   s[3].Value.Float64Histogram(),
	}
}

// runtimeDelta reports, between two snapshots, the CPU seconds the
// process kept busy, the GC and idle shares of the available CPU time, and
// the median goroutine scheduling latency (µs).
func runtimeDelta(a, b rtSnapshot) (busy, gcFrac, idleFrac, latP50us float64) {
	total := b.total - a.total
	busy = total - (b.idle - a.idle)
	if total > 0 {
		gcFrac = (b.gc - a.gc) / total
		idleFrac = (b.idle - a.idle) / total
	}
	var n uint64
	delta := make([]uint64, len(b.lat.Counts))
	for i := range delta {
		delta[i] = b.lat.Counts[i] - a.lat.Counts[i]
		n += delta[i]
	}
	if n == 0 {
		return busy, gcFrac, idleFrac, 0
	}
	var seen uint64
	for i, c := range delta {
		seen += c
		if 2*seen >= n {
			// Buckets[i] and Buckets[i+1] bound bucket i; report its
			// geometric middle (the histogram's own resolution).
			lo, hi := b.lat.Buckets[i], b.lat.Buckets[i+1]
			if math.IsInf(lo, -1) || lo <= 0 {
				return busy, gcFrac, idleFrac, hi * 1e6
			}
			if math.IsInf(hi, 1) {
				return busy, gcFrac, idleFrac, lo * 1e6
			}
			return busy, gcFrac, idleFrac, math.Sqrt(lo*hi) * 1e6
		}
	}
	return busy, gcFrac, idleFrac, 0
}

// unitCosts are microbenchmarked costs of single operations of the
// layers, measured through their public APIs on this host.
type unitCosts struct {
	ringOp, wheelOp, heapOp float64 // ns per schedule+fire, per event tier
	roundtrip               float64 // ns per proc Resume↔Invoke handoff
	pingpong                float64 // ns per two-message MPI round trip
	// msg is one message's own MPI cost: half a ping-pong round trip less
	// the wakeup handoffs and fired events it contains, which the proc and
	// sim terms of the decomposition already charge.
	msg          float64
	speedEval    float64 // ns per PerfModel.Speed
	faultCompile float64 // s per faults.Compile of the sweep spec
}

// measureUnitCosts runs every microbenchmark reps times and keeps each
// one's median.
func measureUnitCosts(reps int) unitCosts {
	med := func(f func() float64) float64 {
		v := make([]float64, reps)
		for i := range v {
			v[i] = f()
		}
		return median(v)
	}
	c := unitCosts{
		ringOp:       med(benchRing),
		wheelOp:      med(benchWheel),
		heapOp:       med(benchHeap),
		roundtrip:    med(benchRoundtrip),
		speedEval:    med(benchSpeed),
		faultCompile: med(benchFaultCompile),
	}
	var pp pingpong
	c.pingpong = med(func() float64 { pp = benchPingpong(); return pp.ns })
	c.msg = (c.pingpong - pp.wakeups*c.roundtrip - pp.fired*c.wheelOp) / 2
	return c
}

// perOp times n calls of op and returns ns per call.
func perOp(n int, op func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

const microOps = 200_000

// benchRing: a periodic event re-arming itself every period, the tick
// ladder's tier.
func benchRing() float64 {
	e := sim.NewEngine(1)
	const period = sim.Millisecond
	var ev *sim.Event
	ev = e.SchedulePeriodic(period, period, func() { e.Reschedule(ev, e.Now()+period) })
	return perOp(microOps, func() { e.Step() })
}

// benchWheel: a one-shot event a few hundred microseconds out (burst
// completions, message deliveries) lands in the timer wheel.
func benchWheel() float64 {
	e := sim.NewEngine(1)
	do := func() {}
	return perOp(microOps, func() {
		e.After(300*sim.Microsecond, do)
		e.Step()
	})
}

// benchHeap: an event beyond the wheel horizon goes to the overflow heap.
func benchHeap() float64 {
	e := sim.NewEngine(1)
	do := func() {}
	return perOp(microOps, func() {
		e.After(100*sim.Second, do)
		e.Step()
	})
}

// benchRoundtrip: one engine→body→engine handoff of a simulated process.
func benchRoundtrip() float64 {
	const n = microOps / 4
	p := proc.New(1, "rt", func(h *proc.Handle) {
		for h.Invoke(nil) == nil {
		}
	})
	if _, done := p.Start(); done {
		panic("perfbench: round-trip body exited early")
	}
	ns := perOp(n, func() { p.Resume(nil) })
	if _, done := p.Resume(true); !done {
		panic("perfbench: round-trip body did not exit")
	}
	return ns
}

// pingpong is one measured MPI round trip: its wall time and the wakeups
// and fired events it took.
type pingpong struct{ ns, wakeups, fired float64 }

// benchPingpong: two ranks on one kernel exchanging a small message back
// and forth.
func benchPingpong() pingpong {
	const n = 5_000
	k := sched.NewKernel(sim.NewEngine(1), power5.NewChip(2, power5.NewCalibratedPerfModel()), sched.DefaultOptions())
	w := mpi.NewWorld(k, 2, mpi.DefaultOptions())
	w.Spawn(0, sched.TaskSpec{}, func(r *mpi.Rank) {
		for i := 0; i < n; i++ {
			r.Send(1, 0, 64)
			r.Recv(1, 0)
		}
	})
	w.Spawn(1, sched.TaskSpec{}, func(r *mpi.Rank) {
		for i := 0; i < n; i++ {
			r.Recv(0, 0)
			r.Send(0, 0, 64)
		}
	})
	start := time.Now()
	k.RunUntilWatchedExit(sim.MaxTime)
	pp := pingpong{ns: float64(time.Since(start).Nanoseconds()) / n}
	k.Shutdown()
	if w.MsgCount() != 2*n {
		panic("perfbench: ping-pong lost messages")
	}
	var c counts
	c.addKernel(k)
	pp.wakeups = float64(c.wakeups) / n
	pp.fired = float64(c.fired) / n
	return pp
}

var speedSink float64

// benchSpeed cycles PerfModel.Speed over every valid priority pair.
func benchSpeed() float64 {
	m := power5.NewCalibratedPerfModel()
	var pairs [][2]power5.Priority
	for own := power5.Priority(1); own <= 6; own++ {
		for sib := power5.Priority(1); sib <= 6; sib++ {
			pairs = append(pairs, [2]power5.Priority{own, sib})
		}
	}
	i := 0
	return perOp(microOps, func() {
		p := pairs[i%len(pairs)]
		speedSink += m.Speed(p[0], p[1], i&1 == 0)
		i++
	})
}

func benchFaultCompile() float64 {
	spec := faults.MustParse(sweepFaults)
	const n = 2_000
	var seed uint64
	return perOp(n, func() {
		seed++
		faults.Compile(spec, seed, experiments.MachineCPUs)
	}) / 1e9
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
