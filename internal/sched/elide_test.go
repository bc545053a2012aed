package sched

import (
	"fmt"
	"math"
	"testing"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// elideKernel is a kernel whose CFS slices are long enough (a 10⁶ s
// latency) that a non-empty queue still leaves up to ticklessParkCap ticks
// Resched-free, so ElideTicks can be compared with Tick over whole parks.
func elideKernel() *Kernel {
	opts := DefaultOptions()
	opts.CFSLatency = 1e6 * sim.Second
	return NewKernel(sim.NewEngine(1), power5.NewChip(2, power5.NewCalibratedPerfModel()), opts)
}

// elideCounts are the stretch lengths the ElideTicks tests cover, up to
// the longest park the kernel arms.
var elideCounts = []int{1, 2, 3, 17, 100, 999, ticklessParkCap}

// cfsElideState builds, from seed alone, a CFS queue with a running task
// of the given nice level and a non-empty tree of queued tasks, and runs
// the stretch's first tick through the real Tick (its vruntime delta spans
// a partial period, as after mid-grid accounting). The leftmost queued
// vruntime lands before, inside or after the running task's trajectory
// over the next n ticks, so the final updateMin is exercised every way.
func cfsElideState(seed uint64, nice, n int) (*Kernel, *cfsRQ, *Task) {
	k := elideKernel()
	rng := sim.NewRNG(seed)
	p := k.Opts.TickPeriod
	crq := (&fairClass{}).NewRQ(k, 0).(*cfsRQ)
	cur := &Task{Name: "cur", Nice: nice}
	cur.cfs.init(cur)
	cur.cfs.vruntime = 1e9 * (1 + rng.Float64())
	cur.SumExec = sim.Time(rng.Int63n(int64(sim.Second))) + p
	cur.cfs.lastSumExec = cur.SumExec - sim.Time(rng.Int63n(int64(p))) - 1
	cur.cfs.sliceStart = cur.SumExec - sim.Time(rng.Int63n(int64(p)))
	span := float64(n) * float64(p) * nice0Weight / float64(cur.cfs.weight)
	lowest := cur.cfs.vruntime
	for i := rng.Intn(3) + 1; i > 0; i-- {
		q := &Task{Name: fmt.Sprintf("q%d", i), Nice: rng.Intn(40) - 20}
		q.cfs.init(q)
		q.cfs.vruntime = cur.cfs.vruntime + (2*rng.Float64()-0.5)*span
		lowest = min(lowest, q.cfs.vruntime)
		crq.Enqueue(q, false)
	}
	crq.minVruntime = lowest - 1e6*rng.Float64()
	crq.Tick(cur)
	return k, crq, cur
}

// TestElideTicksMatchesTicks pins the TickHorizon contract for every class
// the kernel parks: within a TickNoops bound, ElideTicks(t, n) leaves the
// same bits — vruntime and min_vruntime via math.Float64bits, quanta, the
// vruntime mark — as n Tick calls, each preceded by one period of run
// time, and neither requests a reschedule.
func TestElideTicksMatchesTicks(t *testing.T) {
	t.Run("cfs", func(t *testing.T) {
		for _, nice := range []int{-20, -7, 0, 5, 19} {
			for _, n := range elideCounts {
				for i := range 8 {
					seed := uint64(nice+20)<<32 | uint64(n)<<8 | uint64(i)
					name := fmt.Sprintf("nice=%d n=%d seed=%#x", nice, n, seed)
					k, ticked, a := cfsElideState(seed, nice, n)
					_, elided, b := cfsElideState(seed, nice, n)
					if h := ticked.TickNoops(a); h < n {
						t.Fatalf("%s: TickNoops = %d, the setup does not cover %d ticks", name, h, n)
					}
					p := k.Opts.TickPeriod
					for range n {
						a.SumExec += p
						ticked.Tick(a)
					}
					b.SumExec += sim.Time(n) * p
					elided.ElideTicks(b, n)
					if k.rqs[0].needResched {
						t.Fatalf("%s: a ticked instant requested a reschedule", name)
					}
					if math.Float64bits(a.cfs.vruntime) != math.Float64bits(b.cfs.vruntime) ||
						math.Float64bits(ticked.minVruntime) != math.Float64bits(elided.minVruntime) ||
						a.cfs.lastSumExec != b.cfs.lastSumExec {
						t.Fatalf("%s: ticked vruntime=%v min=%v mark=%d, elided vruntime=%v min=%v mark=%d",
							name, a.cfs.vruntime, ticked.minVruntime, a.cfs.lastSumExec,
							b.cfs.vruntime, elided.minVruntime, b.cfs.lastSumExec)
					}
				}
			}
		}
	})
	t.Run("rt", func(t *testing.T) {
		for _, policy := range []Policy{PolicyRR, PolicyFIFO} {
			for _, n := range elideCounts {
				k := elideKernel()
				p := k.Opts.TickPeriod
				rq := (&rtClass{}).NewRQ(k, 0).(*rtRQ)
				rq.Enqueue(&Task{Name: "q", policy: policy}, false)
				a := &Task{Name: "a", policy: policy, rt: rtEntity{sliceLeft: sim.Time(n)*p + p/3}}
				b := &Task{Name: "b", policy: policy, rt: a.rt}
				if h := rq.TickNoops(a); h < n {
					t.Fatalf("%v n=%d: TickNoops = %d", policy, n, h)
				}
				for range n {
					rq.Tick(a)
				}
				rq.ElideTicks(b, n)
				if k.rqs[0].needResched || a.rt.sliceLeft != b.rt.sliceLeft {
					t.Fatalf("%v n=%d: ticked quantum %d (resched %v), elided %d",
						policy, n, a.rt.sliceLeft, k.rqs[0].needResched, b.rt.sliceLeft)
				}
			}
		}
	})
	t.Run("idle", func(t *testing.T) {
		rq := (&idleClass{}).NewRQ(elideKernel(), 0).(*idleRQ)
		if rq.TickNoops(&Task{}) < ticklessParkCap {
			t.Fatal("the idle class's Tick should never act")
		}
		rq.ElideTicks(&Task{}, ticklessParkCap) // nothing to apply, nothing to panic
	})
}

// TestElideTicksOutOfStepPanics pins the CFS guard: ElideTicks called
// with run time that does not span exactly n periods is a kernel bug.
func TestElideTicksOutOfStepPanics(t *testing.T) {
	k, crq, cur := cfsElideState(1, 0, 4)
	cur.SumExec += 4*k.Opts.TickPeriod + 1
	defer func() {
		if recover() == nil {
			t.Fatal("ElideTicks accepted run time out of step with n")
		}
	}()
	crq.ElideTicks(cur, 4)
}

// TestLoadCrossingMatchesScan pins the closed-form crossing search against
// a brute-force scan of what the settles will actually apply: for random
// anchors, samples and limits, loadCrossAt(s, limit) must be the first
// grid instant at which applyLoad(s, ·) followed by loadAvg reaches limit
// — including the re-anchoring case (anchor sample ≠ s) and anchors whose
// table index is already past the snap.
func TestLoadCrossingMatchesScan(t *testing.T) {
	k := elideKernel()
	p := k.Opts.TickPeriod
	rng := sim.NewRNG(99)
	for trial := 0; trial < 400; trial++ {
		rq := &RunQueue{kernel: k}
		rq.loadX0 = rng.Float64()
		if trial%10 == 0 {
			rq.loadX0 = float64(rng.Intn(2)) // converged anchors
		}
		rq.loadS = float64(rng.Intn(2))
		rq.loadAnchor = sim.Time(rng.Int63n(1000)) * p
		rq.loadTicked = rq.loadAnchor + sim.Time(rng.Int63n(int64(len(loadPow))+200))*p
		for _, s := range []float64{0, 1} {
			limit := rng.Float64()
			got := rq.loadCrossAt(s, limit)
			want := sim.MaxTime
			for j := range len(loadPow) + 2 {
				at := rq.loadTicked + sim.Time(j)*p
				probe := *rq
				probe.applyLoad(s, at)
				v := probe.loadAvg()
				if (s == 0 && v <= limit) || (s == 1 && v >= limit) {
					want = at
					break
				}
			}
			if got != want {
				t.Fatalf("trial %d: anchor x0=%v s=%v k=%d, sample %v limit %v: crossing %d, scan %d",
					trial, rq.loadX0, rq.loadS, (rq.loadTicked-rq.loadAnchor)/p, s, limit, got, want)
			}
		}
	}
}

// TestLoadEvalTracksRecurrence bounds what the closed form changes: over
// the whole table, loadEval stays within 1e-12 of the per-tick recurrence
// v += loadAlpha·(s − v) (snapped to s within loadSnap) it replaces, except
// within 2·loadSnap of s, where one of the two may have snapped first. The
// 0.35/0.75 threshold reads can therefore only differ on values within
// 1e-12 of a threshold.
func TestLoadEvalTracksRecurrence(t *testing.T) {
	rng := sim.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		x0, s := rng.Float64(), float64(trial%2)
		v := x0
		for k := range int64(len(loadPow)) + 10 {
			tol := 1e-12
			if math.Abs(v-s) < 2*loadSnap {
				tol = 2 * loadSnap
			}
			if got := loadEval(x0, s, k); math.Abs(got-v) > tol {
				t.Fatalf("x0=%v s=%v k=%d: closed form %v, recurrence %v", x0, s, k, got, v)
			}
			v += loadAlpha * (s - v)
			if d := v - s; d < loadSnap && d > -loadSnap {
				v = s
			}
		}
		if loadEval(x0, s, 0) != x0 || loadEval(x0, s, int64(len(loadPow))) != s {
			t.Fatalf("x0=%v s=%v: k=0 must give the anchor and the table's end the sample", x0, s)
		}
	}
}
