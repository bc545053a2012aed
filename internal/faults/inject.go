package faults

import (
	"fmt"
	"strings"

	"hpcsched/internal/batch"
	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// Injector applies a compiled Schedule to a running simulation. Every
// action becomes one engine event at its virtual instant; the callbacks
// drive the model through its existing hooks only:
//
//   - slowdowns and stalls fold a speed scale into the POWER5 context's
//     cached speed pair (power5.Context.SetSpeedScale), whose change hook
//     re-plans in-flight bursts exactly like a priority change;
//   - core loss goes through sched.Kernel.OfflineCore (hotplug-style task
//     evacuation);
//   - storms spawn ordinary pinned daemon tasks with their own derived RNG
//     streams, which exit when the storm window closes;
//   - MPI delay toggles the transport's extra-latency knob.
//
// Overlapping windows compose: a context's scale is the product of its
// active factors, the message delay the sum of its active extras.
type Injector struct {
	kernel *sched.Kernel
	world  *mpi.World
	node   int // the cluster node this injector's faults are scoped to
	sc     *Schedule

	factors  [][]float64 // per context: active speed factors
	extras   []sim.Time  // active message-delay add-ons
	stormSeq uint64

	log []string
}

// InstallAt wires schedule sc into cluster node `node`'s kernel k (and
// world, which may be nil when the run has no MPI job); single-node runs
// pass node 0. MPI-delay windows drive mpi.World.SetNodeExtraDelay(node, ·),
// so the fault add-on composes with the rank-pair topology extras and with
// other nodes' injectors instead of overwriting a global knob. An empty
// schedule installs nothing and returns nil: the zero-fault run schedules
// no events, draws no RNG values and touches no model state — provably a
// no-op. The returned Injector records the applied timeline for
// determinism checks and reports.
func InstallAt(k *sched.Kernel, w *mpi.World, node int, sc *Schedule) *Injector {
	if sc.Empty() {
		return nil
	}
	inj := &Injector{
		kernel:  k,
		world:   w,
		node:    node,
		sc:      sc,
		factors: make([][]float64, k.NumCPUs()),
	}
	for i := range sc.Actions {
		a := sc.Actions[i] // copy: each event owns its action value
		k.Engine.Schedule(a.At, func() { inj.apply(a) })
	}
	return inj
}

// Timeline returns the applied-action log so far (one line per action, in
// application order). For a completed run it is a pure function of
// (spec, seed, machine): the determinism tests compare it byte-for-byte
// across worker counts.
func (inj *Injector) Timeline() []string {
	out := make([]string, len(inj.log))
	copy(out, inj.log)
	return out
}

// FormatTimeline renders the applied-action log as one block.
func (inj *Injector) FormatTimeline() string { return strings.Join(inj.log, "\n") }

func (inj *Injector) logf(format string, args ...any) {
	inj.log = append(inj.log, fmt.Sprintf(format, args...))
}

func (inj *Injector) apply(a Action) {
	k := inj.kernel
	now := k.Now()
	switch a.Kind {
	case ActHetero:
		// Persistent heterogeneity: the factor is pushed once at t=0 and
		// never popped, composing multiplicatively with any transient
		// slowdown/stall windows that later touch the same context.
		inj.factors[a.CPU] = append(inj.factors[a.CPU], a.Factor)
		scale := inj.applyScale(a.CPU)
		inj.logf("%v hetero cpu%d factor=%.3f scale=%.3g", now, a.CPU, a.Factor, scale)
	case ActSlowOn:
		inj.factors[a.CPU] = append(inj.factors[a.CPU], a.Factor)
		scale := inj.applyScale(a.CPU)
		inj.logf("%v slow-on cpu%d factor=%.3f scale=%.3g", now, a.CPU, a.Factor, scale)
	case ActSlowOff:
		inj.factors[a.CPU] = removeOne(inj.factors[a.CPU], a.Factor)
		scale := inj.applyScale(a.CPU)
		inj.logf("%v slow-off cpu%d factor=%.3f scale=%.3g", now, a.CPU, a.Factor, scale)
	case ActStallOn, ActStallOff:
		for s := 0; s < 2; s++ {
			cpu := 2*a.CPU + s
			if a.Kind == ActStallOn {
				inj.factors[cpu] = append(inj.factors[cpu], a.Factor)
			} else {
				inj.factors[cpu] = removeOne(inj.factors[cpu], a.Factor)
			}
			inj.applyScale(cpu)
		}
		inj.logf("%v %v core%d", now, a.Kind, a.CPU)
	case ActCoreLoss:
		switch {
		case !k.CPUOnline(2 * a.CPU):
			inj.logf("%v core-loss core%d skipped (already offline)", now, a.CPU)
		case k.NumOnlineCPUs() <= 2:
			inj.logf("%v core-loss core%d skipped (last online core)", now, a.CPU)
		default:
			before := k.MigHotplug
			k.OfflineCore(a.CPU)
			inj.logf("%v core-loss core%d offline, %d task(s) migrated",
				now, a.CPU, k.MigHotplug-before)
		}
	case ActStorm:
		n := inj.spawnStorm(a)
		inj.logf("%v storm until %v: %d daemon(s), duty=%.2f", now, now+a.Dur, n, a.Duty)
	case ActMPIDelayOn, ActMPIDelayOff:
		if inj.world == nil {
			inj.logf("%v %v skipped (no MPI world)", now, a.Kind)
			return
		}
		if a.Kind == ActMPIDelayOn {
			inj.extras = append(inj.extras, a.Extra)
		} else {
			inj.extras = removeOneTime(inj.extras, a.Extra)
		}
		var sum sim.Time
		for _, e := range inj.extras {
			sum += e
		}
		inj.world.SetNodeExtraDelay(inj.node, sum)
		inj.logf("%v %v extra=%v total=%v", now, a.Kind, a.Extra, sum)
	}
}

// applyScale recomputes and programs the context's speed scale as the
// product of its active factors; it returns the new scale.
func (inj *Injector) applyScale(cpu int) float64 {
	scale := 1.0
	for _, f := range inj.factors[cpu] {
		scale *= f
	}
	inj.kernel.Chip.CPU(cpu).SetSpeedScale(scale)
	return scale
}

// stormSalt separates the storm daemons' RNG streams from the schedule
// compiler's.
const stormSalt = 0x5702_0000_0000_0000

// spawnStorm launches the storm's daemon tasks on every online CPU; each
// runs duty-cycled bursts until the window closes, then exits. Every daemon
// draws from its own stream derived from the schedule seed and a running
// counter, so storm behaviour is reproducible and independent of the
// engine's RNG position.
func (inj *Injector) spawnStorm(a Action) int {
	k := inj.kernel
	end := k.Now() + a.Dur
	burst := a.Burst
	if burst <= 0 {
		burst = 500 * sim.Microsecond
	}
	duty := a.Duty
	if duty <= 0 || duty >= 1 {
		duty = 0.25
	}
	gapMean := sim.Time(float64(burst) * (1 - duty) / duty)
	if gapMean <= 0 {
		gapMean = 1
	}
	n := 0
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		if !k.CPUOnline(cpu) {
			continue
		}
		for d := 0; d < a.Daemons; d++ {
			rng := sim.NewRNG(batch.DeriveSeed(inj.sc.seed, stormSalt+inj.stormSeq))
			inj.stormSeq++
			name := fmt.Sprintf("storm%d/%d", d, cpu)
			k.AddProcess(sched.TaskSpec{
				Name:     name,
				Policy:   sched.PolicyNormal,
				Affinity: 1 << uint(cpu),
			}, func(env *sched.Env) {
				for env.Now() < end {
					env.Compute(rng.Jitter(burst, 0.5))
					if env.Now() >= end {
						break
					}
					env.Sleep(rng.Jitter(gapMean, 0.5) + 1)
				}
			})
			n++
		}
	}
	return n
}

// removeOne deletes the first element equal to v (the factor recorded in
// the action pair, so on/off always match).
func removeOne(xs []float64, v float64) []float64 {
	for i, x := range xs {
		if x == v {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

func removeOneTime(xs []sim.Time, v sim.Time) []sim.Time {
	for i, x := range xs {
		if x == v {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}
