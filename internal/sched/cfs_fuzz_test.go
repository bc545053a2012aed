package sched

import (
	"math/rand"
	"slices"
	"testing"

	"hpcsched/internal/power5"
	"hpcsched/internal/sim"
)

// FuzzCFSQueue decodes bytes into operations on one CFS run queue —
// Enqueue as a wakeup or a requeue (with relative, fresh and settled
// vruntimes), Dequeue, PickNext, Steal towards a CPU, updateMin, and the
// double-enqueue and unqueued-dequeue misuses that must panic — and checks
// each against a reference model. Vruntimes come from a coarse grid and
// the wakeup floor, so equal keys are common; tasks carry affinity masks
// and are cache-hot or cold. The model keeps the queued tasks in arrival
// order and stable-sorts them by vruntime: the queue must match that order
// exactly (ties FIFO), and Steal must take the last eligible task of it.
//
//	go test -run '^$' -fuzz FuzzCFSQueue -fuzztime 20s ./internal/sched
func FuzzCFSQueue(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{32, 256, 2048} {
			b := make([]byte, n)
			rng.Read(b)
			f.Add(b)
		}
	}
	f.Fuzz(checkCFSQueue)
}

// cfsFuzzTasks is the size of the task pool the operations draw from.
const cfsFuzzTasks = 8

func checkCFSQueue(t *testing.T, data []byte) {
	r := &cfsFuzzOps{b: data}
	k := NewKernel(sim.NewEngine(1), power5.NewChip(2, power5.NewCalibratedPerfModel()), DefaultOptions())
	t.Cleanup(k.Shutdown)
	rq := (&fairClass{}).NewRQ(k, 0).(*cfsRQ)
	latency := float64(k.Opts.CFSLatency)
	tasks := make([]*Task, cfsFuzzTasks)
	for i := range tasks {
		tasks[i] = &Task{PID: i + 1, Nice: int(r.byte()%40) - 20}
		tasks[i].cfs.init(tasks[i])
	}
	var (
		arrived []*Task // model: queued tasks in arrival order
		minV    float64 // model: min_vruntime
	)
	sorted := func() []*Task {
		s := slices.Clone(arrived)
		slices.SortStableFunc(s, func(a, b *Task) int {
			switch {
			case a.cfs.vruntime < b.cfs.vruntime:
				return -1
			case a.cfs.vruntime > b.cfs.vruntime:
				return 1
			}
			return 0
		})
		return s
	}
	drop := func(x *Task) {
		arrived = slices.DeleteFunc(arrived, func(y *Task) bool { return y == x })
	}
	hot := func(x *Task) bool { return x.queuedAt+k.Opts.MigrationCost > k.Now() }
	check := func(op string) {
		want := sorted()
		if !slices.Equal(rq.q, want) {
			t.Fatalf("after %s: queue %v, stable-sorted model %v", op, pids(rq.q), pids(want))
		}
		if tail := rq.q[len(rq.q):cap(rq.q)]; slices.ContainsFunc(tail, func(x *Task) bool { return x != nil }) {
			t.Fatalf("after %s: stale task left past the queue's tail: %v", op, pids(tail))
		}
		var w int64
		for _, x := range want {
			w += x.cfs.weight
		}
		if rq.Len() != len(want) || rq.weightSum != w || rq.minVruntime != minV {
			t.Fatalf("after %s: Len %d weightSum %d minVruntime %v; model %d %d %v",
				op, rq.Len(), rq.weightSum, rq.minVruntime, len(want), w, minV)
		}
		for _, x := range tasks {
			if x.cfs.queued != slices.Contains(arrived, x) {
				t.Fatalf("after %s: task %d queued flag %v disagrees with the model", op, x.PID, x.cfs.queued)
			}
		}
	}
	mustPanic := func(op string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", op)
			}
		}()
		fn()
	}

	for r.i < len(r.b) {
		x := tasks[int(r.byte())%len(tasks)]
		switch op := r.byte() % 6; {
		case op <= 1 && !x.cfs.queued: // Enqueue: op 0 a requeue, op 1 a wakeup
			wakeup := op == 1
			// A coarse vruntime grid makes ties common; 0 is a fresh task.
			x.cfs.vruntime = float64(r.byte()%8) * latency / 4
			x.cfs.relative = r.byte()%4 == 0
			x.SumExec += sim.Time(r.byte()%3) * k.Opts.TickPeriod
			x.Affinity = uint64(r.byte() % 4) // 0: any CPU; else cpu0, cpu1 or both
			x.queuedAt = 0                    // cache-hot at time 0
			if r.byte()%2 == 0 {
				x.queuedAt = -k.Opts.MigrationCost // cold
			}
			// The model's placement: the relative offset, the settled run
			// time, then the wakeup floor or the fresh-task start.
			v := x.cfs.vruntime
			if x.cfs.relative {
				v += minV
			}
			if d := x.SumExec - x.cfs.lastSumExec; d > 0 {
				v += float64(d) * float64(nice0Weight) / float64(x.cfs.weight)
			}
			if floor := minV - latency/2; wakeup && v < floor {
				v = floor
			} else if !wakeup && v == 0 && minV > 0 {
				v = minV
			}
			rq.Enqueue(x, wakeup)
			if x.cfs.vruntime != v || x.cfs.relative {
				t.Fatalf("Enqueue placed task %d at %v (relative %v), model %v", x.PID, x.cfs.vruntime, x.cfs.relative, v)
			}
			arrived = append(arrived, x)
			check("Enqueue")
		case op <= 1: // a queued task: Enqueue again must panic
			mustPanic("double Enqueue", func() { rq.Enqueue(x, op == 1) })
			check("double Enqueue")
		case op == 2 && x.cfs.queued:
			rq.Dequeue(x)
			drop(x)
			check("Dequeue")
		case op == 2: // an unqueued task: Dequeue must panic
			mustPanic("Dequeue of an unqueued task", func() { rq.Dequeue(x) })
			check("unqueued Dequeue")
		case op == 3:
			want := sorted()
			got := rq.PickNext()
			if len(want) == 0 {
				if got != nil {
					t.Fatalf("PickNext on an empty queue returned task %d", got.PID)
				}
				break
			}
			if got != want[0] {
				t.Fatalf("PickNext = task %d, model's leftmost is task %d", got.PID, want[0].PID)
			}
			drop(got)
			minV = max(minV, got.cfs.vruntime)
			check("PickNext")
		case op == 4:
			dst := int(r.byte() % 2)
			var want *Task
			for _, y := range sorted() {
				if y.MayRunOn(dst) && !hot(y) {
					want = y // the last eligible task
				}
			}
			var wantV float64
			if want != nil {
				wantV = max(want.cfs.vruntime-minV, 0)
			}
			got := rq.Steal(dst)
			if got != want {
				t.Fatalf("Steal(%d) = %v, model's last eligible task is %v", dst, pids([]*Task{got}), pids([]*Task{want}))
			}
			if got != nil {
				drop(got)
				if got.cfs.vruntime != wantV || !got.cfs.relative {
					t.Fatalf("Steal left task %d at vruntime %v (relative %v), model %v", got.PID, got.cfs.vruntime, got.cfs.relative, wantV)
				}
			}
			check("Steal")
		default:
			curr := float64(r.byte()%8) * latency / 4
			cand := curr
			if s := sorted(); len(s) > 0 {
				cand = min(cand, s[0].cfs.vruntime)
			}
			minV = max(minV, cand)
			rq.updateMin(curr)
			check("updateMin")
		}
	}
}

// cfsFuzzOps is the operation stream; once exhausted it reads zeros.
type cfsFuzzOps struct {
	b []byte
	i int
}

func (r *cfsFuzzOps) byte() byte {
	if r.i >= len(r.b) {
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

// pids lists tasks by PID for failure messages; a nil task reads 0.
func pids(ts []*Task) []int {
	out := make([]int, len(ts))
	for i, x := range ts {
		if x != nil {
			out[i] = x.PID
		}
	}
	return out
}
