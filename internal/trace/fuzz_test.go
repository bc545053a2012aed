package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// FuzzPRVExport decodes bytes into recorder operations — state transitions
// on several tasks and CPUs (coalesced repeats, zero-length intervals,
// exits, states without a Paraver code, a CPU number that overflows the
// .prv header), priority changes, Filter toggles, SortByName, long bursts
// that make the export split its log into ranges, and Reset with reuse —
// and feeds them to a retaining recorder, to a recorder streaming through
// a PRVSink and to one logging what its sink sees. At every Reset and at
// the end it checks that
//
//   - a trace from before the last Reset yields nothing,
//   - ExportPRV equals the live PRVSink stream,
//   - ExportPRV equals a reference merge of per-task histories the test
//     keeps itself,
//   - Replay feeds its sink the live order,
//   - Each yields the reference history of every task.
//
// The corpus seeds are random byte streams of a few lengths and one long
// burst.
//
//	go test -run '^$' -fuzz FuzzPRVExport -fuzztime 20s ./internal/trace
func FuzzPRVExport(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 256, 2048} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b)
	}
	f.Add([]byte{9, 255, 47, 0, 1, 1, 1, 7, 9, 3, 20})
	f.Fuzz(checkPRVExport)
}

// fuzzTaskNames are the tasks' names: out of ID order, with a duplicate,
// so SortByName reorders and must stay stable.
var fuzzTaskNames = []string{"P3", "P1", "P5", "P0", "P1", "P4"}

var fuzzStates = []sched.State{sched.StateRunnable, sched.StateRunning,
	sched.StateSleeping, sched.StateExited, sched.StateNew}

var fuzzCPUs = []int{0, 1, 2, 3, 7, 12000}

// fuzzRejected is the filter the Filter toggle installs.
func fuzzRejected(name string) bool { return name == "P5" || name == "P0" }

func checkPRVExport(t *testing.T, data []byte) {
	h := newExportHarness()
	var now sim.Time
	var last [3]int // the last transition, for coalesced repeats
	budget := 1 << 14
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	for i < len(data) {
		switch op := next() % 10; {
		case op <= 3:
			now += sim.Time(next() % 4 * 1000)
			last = [3]int{next() % len(fuzzTaskNames), next() % len(fuzzStates), next() % len(fuzzCPUs)}
			h.state(now, last[0], fuzzStates[last[1]], fuzzCPUs[last[2]])
		case op == 4:
			h.state(now, last[0], fuzzStates[last[1]], fuzzCPUs[last[2]])
		case op == 5:
			h.prio(now, next()%len(fuzzTaskNames), 2+next()%5)
		case op == 6:
			h.toggleFilter()
		case op == 7:
			h.sortByName()
		case op == 8:
			h.check(t, now)
			h.reset()
		case op == 9:
			// A burst long enough to split the export into ranges, within
			// a budget per input that keeps each execution short.
			n := min(512*(1+next()%32), budget)
			budget -= n
			rng := rand.New(rand.NewSource(int64(next())))
			for j := 0; j < n; j++ {
				now += sim.Time(rng.Intn(3)) * 1000
				h.state(now, rng.Intn(len(fuzzTaskNames)), fuzzStates[rng.Intn(3)], rng.Intn(4))
			}
		}
	}
	h.check(t, now)
}

// exportHarness drives a retaining recorder, a streaming one and a logging
// one in lockstep with a reference model. Each recorder has its own tasks,
// since a task carries its recorder's state.
type exportHarness struct {
	mem, live, logged *Recorder
	prv               *seekBuffer
	log               *logSink
	tasks             [3][]*sched.Task
	ref               refRecorder
	filter            bool
	stale             []*TaskTrace // traces from before the last Reset
}

func newExportHarness() *exportHarness {
	h := &exportHarness{mem: NewRecorder()}
	for k := range h.tasks {
		for _, n := range fuzzTaskNames {
			h.tasks[k] = append(h.tasks[k], &sched.Task{Name: n})
		}
	}
	h.reset()
	return h
}

func (h *exportHarness) recorders() [3]*Recorder { return [3]*Recorder{h.mem, h.live, h.logged} }

func (h *exportHarness) state(now sim.Time, task int, s sched.State, cpu int) {
	for k, r := range h.recorders() {
		r.TaskState(now, h.tasks[k][task], s, cpu)
	}
	h.ref.state(now, task, s, cpu)
}

func (h *exportHarness) prio(now sim.Time, task, prio int) {
	for k, r := range h.recorders() {
		r.TaskHWPrio(now, h.tasks[k][task], prio)
	}
	h.ref.prio(now, task, prio)
}

func (h *exportHarness) toggleFilter() {
	h.filter = !h.filter
	var f func(*sched.Task) bool
	if h.filter {
		f = func(t *sched.Task) bool { return !fuzzRejected(t.Name) }
	}
	for _, r := range h.recorders() {
		r.Filter = f
	}
	h.ref.filter = h.filter
}

func (h *exportHarness) sortByName() {
	for _, r := range h.recorders() {
		r.SortByName()
	}
	sort.SliceStable(h.ref.order, func(i, j int) bool {
		return h.ref.order[i].name < h.ref.order[j].name
	})
}

// reset resets the retaining recorder for reuse and starts fresh
// streaming ones (a sink is finished once).
func (h *exportHarness) reset() {
	h.stale = slices.Clone(h.mem.Traces())
	h.mem.Reset()
	h.prv, h.log = &seekBuffer{}, &logSink{}
	h.live = NewRecorderWithSink(NewPRVSink(h.prv))
	h.logged = NewRecorderWithSink(h.log)
	h.live.Filter, h.logged.Filter = h.mem.Filter, h.mem.Filter
	h.ref = refRecorder{filter: h.filter}
}

func (h *exportHarness) check(t *testing.T, now sim.Time) {
	t.Helper()
	for _, tt := range h.stale {
		if n := len(tt.Intervals()); n != 0 {
			t.Fatalf("%s#%d from before Reset yields %d intervals", tt.Name, tt.ID, n)
		}
	}
	for _, r := range h.recorders() {
		r.Finish(now)
	}
	h.ref.finish(now)

	got := h.mem.ExportPRV()
	if live := h.prv.String(); got != live {
		t.Fatalf("ExportPRV differs from the live stream:\nexport %q\n  live %q", head(got, 300), head(live, 300))
	}
	if want := h.ref.prv(); got != want {
		t.Fatalf("ExportPRV differs from the reference merge:\nexport %q\n   ref %q", head(got, 300), head(want, 300))
	}

	var replayed logSink
	h.mem.Replay(&replayed)
	if !slices.Equal(replayed.Begun, h.log.Begun) || !slices.Equal(replayed.Ivs, h.log.Ivs) ||
		replayed.End != h.log.End {
		t.Fatalf("Replay order differs from the live order:\nreplay %+v\n  live %+v", replayed, *h.log)
	}

	traces := h.mem.Traces()
	if len(traces) != len(h.ref.order) {
		t.Fatalf("%d traces, reference has %d", len(traces), len(h.ref.order))
	}
	for i, tt := range traces {
		rt := h.ref.order[i]
		if tt.ID != rt.id || tt.Name != rt.name {
			t.Fatalf("trace %d is %s#%d, reference %s#%d", i, tt.Name, tt.ID, rt.name, rt.id)
		}
		ivs := tt.Intervals()
		if !slices.Equal(ivs, rt.closed) || tt.Len() != len(rt.closed) {
			t.Fatalf("%s#%d: Each (Len %d) yields %+v, reference %+v", tt.Name, tt.ID, tt.Len(), ivs, rt.closed)
		}
	}
	// The views read the same log; they must not trip over any of it
	// (one row per CPU number would make the overflowing CPU slow).
	_ = h.mem.Render(RenderOptions{Width: 16})
	if h.mem.maxCPU <= 8 {
		_ = h.mem.RenderByCPU(RenderOptions{Width: 16})
	}
}

// logSink records what a sink is fed, in order.
type logSink struct {
	Begun []int
	Ivs   []loggedInterval
	End   sim.Time
}

type loggedInterval struct {
	ID int
	Interval
}

func (l *logSink) BeginTask(tt *TaskTrace) { l.Begun = append(l.Begun, tt.ID) }
func (l *logSink) Interval(tt *TaskTrace, iv Interval) {
	l.Ivs = append(l.Ivs, loggedInterval{tt.ID, iv})
}
func (l *logSink) PrioChange(*TaskTrace, PrioChange) {}
func (l *logSink) Finish(end sim.Time)               { l.End = end }

// refRecorder is the reference model: per-task histories, each interval
// stamped with its global close number, merged by that number to build
// the expected .prv.
type refRecorder struct {
	order  []*refTask // presentation order
	byID   []*refTask
	byTask map[int]*refTask
	end    sim.Time
	closes int
	filter bool
}

type refTask struct {
	name      string
	id        int
	open      Interval
	openValid bool
	closed    []Interval
	seq       []int
	prios     []int
}

func (m *refRecorder) admit(task int) *refTask {
	name := fuzzTaskNames[task]
	if m.filter && fuzzRejected(name) {
		return nil
	}
	if rt := m.byTask[task]; rt != nil {
		return rt
	}
	if m.byTask == nil {
		m.byTask = map[int]*refTask{}
	}
	rt := &refTask{name: name, id: len(m.byID) + 1}
	m.byTask[task] = rt
	m.byID = append(m.byID, rt)
	m.order = append(m.order, rt)
	return rt
}

func (m *refRecorder) close(rt *refTask, to sim.Time) {
	if to > rt.open.From {
		iv := rt.open
		iv.To = to
		rt.closed = append(rt.closed, iv)
		rt.seq = append(rt.seq, m.closes)
		m.closes++
	}
}

func (m *refRecorder) state(now sim.Time, task int, s sched.State, cpu int) {
	rt := m.admit(task)
	if rt == nil {
		return
	}
	if rt.openValid {
		if rt.open.State == s && rt.open.CPU == cpu {
			return // a coalesced repeat leaves the end time alone
		}
		m.close(rt, now)
	}
	rt.open = Interval{From: now, State: s, CPU: cpu}
	rt.openValid = s != sched.StateExited
	m.end = max(m.end, now)
}

func (m *refRecorder) prio(now sim.Time, task, prio int) {
	rt := m.admit(task)
	if rt == nil || (len(rt.prios) > 0 && rt.prios[len(rt.prios)-1] == prio) {
		return
	}
	rt.prios = append(rt.prios, prio)
	m.end = max(m.end, now)
}

func (m *refRecorder) finish(now sim.Time) {
	for _, rt := range m.order {
		if rt.openValid {
			m.close(rt, now)
			rt.openValid = false
		}
	}
	m.end = max(m.end, now)
}

// prv merges the per-task histories by close number and formats them.
func (m *refRecorder) prv() string {
	var body strings.Builder
	codes := map[sched.State]int{sched.StateRunning: 1, sched.StateSleeping: 3, sched.StateRunnable: 7}
	next := make([]int, len(m.byID))
	cpus := 0
	for {
		best := -1
		for i, rt := range m.byID {
			if next[i] < len(rt.seq) && (best < 0 || rt.seq[next[i]] < m.byID[best].seq[next[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		iv := m.byID[best].closed[next[best]]
		next[best]++
		cpus = max(cpus, iv.CPU+1)
		if code := codes[iv.State]; code != 0 {
			fmt.Fprintf(&body, "1:%d:1:%d:1:%d:%d:%d\n", iv.CPU+1, best+1, int64(iv.From), int64(iv.To), code)
		}
	}
	header := fmt.Sprintf("#Paraver (hpcsched):%020d_ns:1(%04d):1:%06d\n", int64(m.end), max(cpus, 1), len(m.byID))
	if reserved := "#Paraver (hpcsched):00000000000000000000_ns:1(0001):1:000000\n"; len(header) != len(reserved) {
		header = reserved // the totals overflow the fixed-width fields
	}
	return header + body.String()
}
