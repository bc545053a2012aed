package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// interruptStride is how many fired events pass between interrupt polls.
// Polls are two branch checks plus (rarely) a wall-clock read, so the
// stride trades detection latency against hot-loop cost; at ~1M events/s a
// stride of 1024 polls roughly every millisecond of wall time.
const interruptStride = 1024

// AbortError reports a run stopped by the watchdog or by cancellation.
type AbortError struct {
	// Reason is the one-line verdict ("context cancelled", "sim clock
	// stalled at ...").
	Reason string
	// Cause is the context error for cancellations, the cluster's error
	// for a stalled cluster run (*cluster.StallError), nil for a stalled
	// sim clock.
	Cause error
	// Dump is the machine-state diagnostic captured at abort time.
	Dump string
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("experiments: run aborted: %s\n%s", e.Reason, e.Dump)
}

// Unwrap exposes the context error, so errors.Is(err, context.Canceled)
// works across the batch layer.
func (e *AbortError) Unwrap() error { return e.Cause }

// watchdog is the engine-interrupt callback state: it watches for batch
// cancellation and — when armed — for a simulated clock that stops
// advancing while events keep firing (a same-instant event loop; the
// complementary failure, no events firing at all, never reaches this poll
// and is caught by the batch layer's wall-clock deadline instead).
type watchdog struct {
	ctx    context.Context
	kernel *sched.Kernel
	stall  time.Duration

	lastSim  sim.Time
	lastWall time.Time

	reason string
	cause  error
}

func newWatchdog(ctx context.Context, k *sched.Kernel, stall time.Duration) *watchdog {
	return &watchdog{
		ctx:      ctx,
		kernel:   k,
		stall:    stall,
		lastSim:  -1, // distinct from any real instant, so the first poll re-stamps
		lastWall: time.Now(),
	}
}

// check is the interrupt callback; returning true stops the engine.
func (w *watchdog) check() bool {
	if err := w.ctx.Err(); err != nil {
		w.reason = "context cancelled"
		w.cause = err
		return true
	}
	if w.stall <= 0 {
		return false
	}
	now := w.kernel.Now()
	if now != w.lastSim {
		w.lastSim = now
		w.lastWall = time.Now()
		return false
	}
	if since := time.Since(w.lastWall); since >= w.stall {
		w.reason = fmt.Sprintf("sim clock stalled at %v for %v of wall-clock time (events still firing)",
			now, since.Round(time.Millisecond))
		return true
	}
	return false
}

// dumpTaskCap bounds the per-task section of a diagnostic dump.
const dumpTaskCap = 24

// DiagnosticDump renders the kernel's state for an abort report: the last
// kernel instant, the event-store depth, every CPU's occupancy, and the
// parked/blocked process states. It must run before Shutdown (teardown
// kills the very state being reported).
func DiagnosticDump(k *sched.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "last kernel instant: %v\n", k.Now())
	fmt.Fprintf(&b, "pending events: %d\n", k.Engine.Pending())
	fmt.Fprintf(&b, "online CPUs: %d/%d\n", k.NumOnlineCPUs(), k.NumCPUs())
	for cpu := 0; cpu < k.NumCPUs(); cpu++ {
		rq := k.RQ(cpu)
		if rq.Offline() {
			fmt.Fprintf(&b, "  cpu%d: offline\n", cpu)
			continue
		}
		cur := "idle"
		if t := rq.Current(); t != nil {
			cur = "running " + t.String()
		}
		fmt.Fprintf(&b, "  cpu%d: %s, %d queued\n", cpu, cur, rq.NrQueued())
	}
	tasks := k.Tasks()
	counts := map[sched.State]int{}
	for _, t := range tasks {
		counts[t.SchedState()]++
	}
	fmt.Fprintf(&b, "tasks: %d total", len(tasks))
	for _, s := range []sched.State{sched.StateRunning, sched.StateRunnable, sched.StateSleeping, sched.StateExited} {
		if n := counts[s]; n > 0 {
			fmt.Fprintf(&b, ", %d %v", n, s)
		}
	}
	b.WriteString("\n")
	shown := 0
	for _, t := range tasks {
		if t.Exited() {
			continue
		}
		if shown == dumpTaskCap {
			b.WriteString("  ...\n")
			break
		}
		fmt.Fprintf(&b, "  %s state=%v cpu=%d\n", t.Name, t.SchedState(), t.CPU)
		shown++
	}
	return strings.TrimRight(b.String(), "\n")
}

// diagSeq disambiguates multiple dumps from one process (parallel batch
// replicas can abort concurrently).
var diagSeq atomic.Uint64

// writeDiagDump persists an abort diagnostic to $HPCSCHED_DIAG_DIR when that
// variable is set — CI points it at a scratch directory and uploads the
// files as a failure artifact. Unset, or on any write error, it does
// nothing: diagnostics must never mask the abort they describe.
func writeDiagDump(label string, e *AbortError) {
	dir := os.Getenv("HPCSCHED_DIAG_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	name := fmt.Sprintf("diag-%s-%d-%d.txt", label, os.Getpid(), diagSeq.Add(1))
	body := fmt.Sprintf("reason: %s\n\n%s\n", e.Reason, e.Dump)
	_ = os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644)
}
