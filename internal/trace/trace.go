// Package trace records task state intervals during a simulation and
// renders them as ASCII timelines (the role PARAVER plays in the paper's
// Figures 3-6) or exports them in a Paraver-like .prv format.
//
// The Recorder (a sched.Tracer) turns raw state transitions into closed
// Intervals. By default it retains them in one log in the order they
// close: compact pointer-free entries in fixed-size chunks drawn from a
// recorder-owned free list (allocation-free in steady state, reclaimable
// with Reset). Built with a Sink instead, it hands each interval over the
// moment it closes and retains nothing: PRVSink streams Paraver records
// straight to disk, NullSink discards everything, so high-volume runs can
// trace without retaining history.
package trace

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// Interval is a span of one scheduling state.
type Interval struct {
	From, To sim.Time
	State    sched.State
	CPU      int
}

// PrioChange marks a hardware-priority transition.
type PrioChange struct {
	At   sim.Time
	Prio int
}

// entry is one closed interval in the recorder's log: 24 pointer-free
// bytes. task is the task's ID − 1 (its index in Recorder.tasks).
type entry struct {
	from, to sim.Time
	task     int32
	cpu      int16
	state    uint8
}

func (e *entry) interval() Interval {
	return Interval{From: e.from, To: e.to, State: sched.State(e.state), CPU: int(e.cpu)}
}

// chunkCap is how many entries one log chunk holds. Chunks are the unit
// of pooling: the log draws a fresh one from the recorder's free list
// every chunkCap intervals, so recording costs one allocation per
// chunkCap events at worst — and none at all once Reset has stocked the
// free list. A chunk holds no pointers, so the GC never scans it.
const chunkCap = 256

type chunk [chunkCap]entry

// TaskTrace is the recorded history of one task.
type TaskTrace struct {
	Task *sched.Task
	Name string
	// ID is the 1-based task identifier used in .prv records. It is
	// assigned in first-seen order and is stable under SortByName, so the
	// in-memory export and a live streaming sink agree on it.
	ID int

	Prios []PrioChange

	count     int
	open      Interval
	openValid bool
	rec       *Recorder // nil once the recorder is Reset
}

// Len returns the number of closed intervals retained for the task.
func (tt *TaskTrace) Len() int { return tt.count }

// Each calls f for every retained interval in recording order. It scans
// the recorder's whole log.
func (tt *TaskTrace) Each(f func(Interval)) {
	if tt.rec == nil {
		return
	}
	task := int32(tt.ID - 1)
	for e := range tt.rec.entries(0, len(tt.rec.log)) {
		if e.task == task {
			f(e.interval())
		}
	}
}

// Intervals returns a flattened copy of the retained history (convenience
// for tests and cold-path consumers; Each avoids the copy).
func (tt *TaskTrace) Intervals() []Interval {
	out := make([]Interval, 0, tt.count)
	tt.Each(func(iv Interval) { out = append(out, iv) })
	return out
}

// Recorder implements sched.Tracer: it closes intervals on state changes
// and either appends them to its log, in the order they close, or feeds
// them to its sink.
type Recorder struct {
	order []*TaskTrace // presentation order: first-seen, or SortByName
	tasks []*TaskTrace // ID order: tasks[i].ID == i+1
	end   sim.Time
	// Filter limits recording to selected tasks (nil records everything).
	// It is consulted on every event, so installing a filter mid-run stops
	// the recording of already-admitted tasks that no longer pass.
	Filter func(t *sched.Task) bool

	sink Sink // nil: the recorder retains history in its log

	// The log holds every retained interval in close order: entry i sits
	// in log[i/chunkCap]. maxCPU is the highest CPU+1 logged, the .prv
	// header's CPU count.
	log    []*chunk
	n      int
	maxCPU int
	free   []*chunk // chunk free list (stocked by Reset)
}

// NewRecorder returns a recorder that retains history in memory (Render,
// ExportPRV and Traces-with-intervals all work). Install it with
// kernel.SetTracer.
func NewRecorder() *Recorder { return &Recorder{} }

// NewRecorderWithSink returns a recorder that hands every closed interval
// to s and retains nothing: Traces still lists the tasks (names, prio
// history), but Render and ExportPRV are unavailable. Use it with PRVSink
// to stream a trace to disk, or NullSink to measure tracing overhead.
func NewRecorderWithSink(s Sink) *Recorder {
	if s == nil {
		panic("trace: NewRecorderWithSink with nil sink")
	}
	return &Recorder{sink: s}
}

// Retains reports whether the recorder keeps interval history in memory.
func (r *Recorder) Retains() bool { return r.sink == nil }

// entries yields the log entries of chunks [lo, hi) in close order.
func (r *Recorder) entries(lo, hi int) iter.Seq[*entry] {
	return func(yield func(*entry) bool) {
		for ci := lo; ci < hi; ci++ {
			c := r.log[ci][:min(r.n-ci*chunkCap, chunkCap)]
			for i := range c {
				if !yield(&c[i]) {
					return
				}
			}
		}
	}
}

// traceFor returns the task's trace, admitting it on first sight. The
// filter is checked on every call — not only on the first miss — so a task
// admitted before a filter was installed stops recording the moment the
// filter rejects it.
func (r *Recorder) traceFor(t *sched.Task) *TaskTrace {
	if r.Filter != nil && !r.Filter(t) {
		return nil
	}
	if tt, ok := t.TraceData.(*TaskTrace); ok && tt.rec == r {
		return tt
	}
	tt := &TaskTrace{Task: t, Name: t.Name, rec: r, ID: len(r.tasks) + 1}
	t.TraceData = tt
	r.order = append(r.order, tt)
	r.tasks = append(r.tasks, tt)
	if r.sink != nil {
		r.sink.BeginTask(tt)
	}
	return tt
}

// emit closes tt.open: it appends it to the log, or hands it to the sink.
func (r *Recorder) emit(tt *TaskTrace) {
	iv := tt.open
	if r.sink != nil {
		r.sink.Interval(tt, iv)
		return
	}
	if int(int16(iv.CPU)) != iv.CPU || iv.State < 0 || iv.State > math.MaxUint8 {
		panic(fmt.Sprintf("trace: interval %+v does not fit the log (CPU beyond int16 or bad state)", iv))
	}
	i := r.n % chunkCap
	if i == 0 {
		r.log = append(r.log, r.newChunk())
	}
	r.log[len(r.log)-1][i] = entry{from: iv.From, to: iv.To, task: int32(tt.ID - 1),
		cpu: int16(iv.CPU), state: uint8(iv.State)}
	r.n++
	tt.count++
	if iv.CPU+1 > r.maxCPU {
		r.maxCPU = iv.CPU + 1
	}
}

// newChunk takes a chunk from the free list, allocating when it is empty.
func (r *Recorder) newChunk() *chunk {
	if n := len(r.free); n > 0 {
		c := r.free[n-1]
		r.free = r.free[:n-1]
		return c
	}
	return new(chunk)
}

// TaskState implements sched.Tracer.
func (r *Recorder) TaskState(now sim.Time, t *sched.Task, s sched.State, cpu int) {
	tt := r.traceFor(t)
	if tt == nil {
		return
	}
	if tt.openValid {
		if tt.open.State == s && tt.open.CPU == cpu {
			return // coalesce repeated dispatches of the same state
		}
		tt.open.To = now
		if tt.open.To > tt.open.From {
			r.emit(tt)
		}
	}
	tt.open = Interval{From: now, State: s, CPU: cpu}
	tt.openValid = s != sched.StateExited
	if now > r.end {
		r.end = now
	}
}

// TaskHWPrio implements sched.Tracer.
func (r *Recorder) TaskHWPrio(now sim.Time, t *sched.Task, prio int) {
	tt := r.traceFor(t)
	if tt == nil {
		return
	}
	if n := len(tt.Prios); n > 0 && tt.Prios[n-1].Prio == prio {
		return
	}
	pc := PrioChange{At: now, Prio: prio}
	tt.Prios = append(tt.Prios, pc)
	if r.sink != nil {
		r.sink.PrioChange(tt, pc)
	}
	if now > r.end {
		r.end = now
	}
}

// Finish closes all open intervals at the given end time and finishes the
// sink.
func (r *Recorder) Finish(now sim.Time) {
	for _, tt := range r.order {
		if tt.openValid {
			tt.open.To = now
			if tt.open.To > tt.open.From {
				r.emit(tt)
			}
			tt.openValid = false
		}
	}
	if now > r.end {
		r.end = now
	}
	if r.sink != nil {
		r.sink.Finish(r.end)
	}
}

// Reset forgets every recorded task and returns all log chunks to the
// recorder's free list, so a recorder can be reused across runs without
// reallocating its storage.
func (r *Recorder) Reset() {
	for _, tt := range r.tasks {
		if tt.Task != nil && tt.Task.TraceData == tt {
			tt.Task.TraceData = nil
		}
		tt.rec = nil
	}
	clear(r.order)
	clear(r.tasks)
	r.order, r.tasks = r.order[:0], r.tasks[:0]
	r.free = append(r.free, r.log...)
	r.log = r.log[:0]
	r.n, r.maxCPU, r.end = 0, 0, 0
}

// Traces returns the recorded tasks in first-seen order (or the order set
// by SortByName).
func (r *Recorder) Traces() []*TaskTrace { return r.order }

// End returns the last recorded timestamp.
func (r *Recorder) End() sim.Time { return r.end }

// Replay feeds the retained history through s: BeginTask for every task in
// ID order, then every closed interval in the order the intervals closed —
// the order a live sink saw them — then Finish at End(). Priority changes
// are not replayed (the in-memory store keeps them on the TaskTrace).
func (r *Recorder) Replay(s Sink) {
	if !r.Retains() {
		panic("trace: Replay requires the in-memory recorder")
	}
	for _, tt := range r.tasks {
		s.BeginTask(tt)
	}
	for e := range r.entries(0, len(r.log)) {
		s.Interval(r.tasks[e.task], e.interval())
	}
	s.Finish(r.end)
}

// stateGlyph maps a state to its timeline character: '#' computing (dark
// grey in the paper's figures), '.' waiting (light grey), '+' runnable but
// queued, ' ' not yet started / exited.
func stateGlyph(s sched.State) byte {
	switch s {
	case sched.StateRunning:
		return '#'
	case sched.StateRunnable:
		return '+'
	case sched.StateSleeping:
		return '.'
	default:
		return ' '
	}
}

// glyphIdx indexes the fixed glyph precedence '#', '.', '+' used when
// picking a bucket's dominant state; -1 for anything else.
func glyphIdx(g byte) int {
	switch g {
	case '#':
		return 0
	case '.':
		return 1
	case '+':
		return 2
	default:
		return -1
	}
}

// RenderOptions controls ASCII rendering.
type RenderOptions struct {
	Width    int      // timeline columns (default 100)
	From, To sim.Time // window (default: full trace)
	Prios    bool     // append a priority-change annotation per task
}

// window applies the defaults for a recorder ending at end and reports
// whether the window is non-empty.
func (opt *RenderOptions) window(end sim.Time) bool {
	if opt.Width <= 0 {
		opt.Width = 100
	}
	if opt.To == 0 {
		opt.To = end
	}
	return opt.To > opt.From
}

// spread calls add for every column that [from, to) overlaps within the
// window, with the length of the overlap.
func (opt *RenderOptions) spread(from, to sim.Time, add func(c int, overlap sim.Time)) {
	if to <= opt.From || from >= opt.To {
		return
	}
	from, to = max(from, opt.From), min(to, opt.To)
	span, width := opt.To-opt.From, sim.Time(opt.Width)
	c0 := int(int64(from-opt.From) * int64(opt.Width) / int64(span))
	c1 := min(int(int64(to-opt.From)*int64(opt.Width)/int64(span)), opt.Width-1)
	for c := c0; c <= c1; c++ {
		bFrom := opt.From + span*sim.Time(c)/width
		bTo := opt.From + span*sim.Time(c+1)/width
		if ov := min(to, bTo) - max(from, bFrom); ov > 0 {
			add(c, ov)
		}
	}
}

// Render draws one row per task. Each column shows the state the task
// spent the most time in within that bucket. It requires the in-memory
// recorder (streaming recorders retain no history to draw).
func (r *Recorder) Render(opt RenderOptions) string {
	if !opt.window(r.end) {
		return ""
	}
	var b strings.Builder
	nameW := 0
	for _, tt := range r.order {
		if len(tt.Name) > nameW {
			nameW = len(tt.Name)
		}
	}
	fmt.Fprintf(&b, "%*s  time %v .. %v (1 col = %v)\n", nameW, "", opt.From, opt.To,
		(opt.To-opt.From)/sim.Time(opt.Width))
	// One pass over the log: time per task, column and glyph.
	weights := make([][3]sim.Time, len(r.tasks)*opt.Width)
	for e := range r.entries(0, len(r.log)) {
		g := glyphIdx(stateGlyph(sched.State(e.state)))
		if g < 0 {
			continue
		}
		w := weights[int(e.task)*opt.Width:]
		opt.spread(e.from, e.to, func(c int, ov sim.Time) { w[c][g] += ov })
	}
	row := make([]byte, opt.Width)
	for _, tt := range r.order {
		w := weights[(tt.ID-1)*opt.Width:]
		for c := range row {
			bestG, bestW := byte(' '), sim.Time(0)
			// Deterministic order: check glyphs in fixed precedence.
			for gi, g := range []byte{'#', '.', '+'} {
				if w[c][gi] > bestW {
					bestG, bestW = g, w[c][gi]
				}
			}
			row[c] = bestG
		}
		fmt.Fprintf(&b, "%*s |%s|\n", nameW, tt.Name, string(row))
		if opt.Prios && len(tt.Prios) > 0 {
			var ann []string
			for _, pc := range tt.Prios {
				ann = append(ann, fmt.Sprintf("%v→%d", pc.At, pc.Prio))
			}
			fmt.Fprintf(&b, "%*s  prio: %s\n", nameW, "", strings.Join(ann, " "))
		}
	}
	b.WriteString(legend())
	return b.String()
}

func legend() string {
	return "legend: '#' computing   '.' waiting   '+' runnable (queued)\n"
}

// CompPct returns the fraction of the window the task spent computing,
// in percent — the paper's "% Comp" column derived from the trace.
func (tt *TaskTrace) CompPct(from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	var run sim.Time
	tt.Each(func(iv Interval) {
		if iv.State != sched.StateRunning {
			return
		}
		f, t := iv.From, iv.To
		if t <= from || f >= to {
			return
		}
		if f < from {
			f = from
		}
		if t > to {
			t = to
		}
		run += t - f
	})
	return 100 * float64(run) / float64(to-from)
}

// exportRangeChunks is the fewest log chunks worth a goroutine of their
// own in ExportPRV.
const exportRangeChunks = 16

// rangeBufs recycles the buffers ExportPRV formats its later ranges into
// (*[]byte); their bytes are copied into the result before reuse.
var rangeBufs sync.Pool

// ExportPRV renders the retained history as a simplified Paraver trace: a
// fixed-width header line followed by state records
// "1:cpu:1:task:1:begin:end:state" in the order the intervals closed, with
// Paraver state codes (1 = running, 3 = waiting, 7 = ready). The output is
// byte-identical to what a live PRVSink streamed during the same run: both
// format through prvFormatter. The records go in one pass into one buffer
// presized from the totals; a long log is cut into contiguous ranges,
// formatted on up to GOMAXPROCS goroutines and joined in order.
func (r *Recorder) ExportPRV() string {
	if !r.Retains() {
		panic("trace: ExportPRV requires the in-memory recorder")
	}
	header := prvHeader(r.end, r.maxCPU, len(r.tasks))
	if len(header) != len(prvReserved) {
		// The totals overflow the fixed-width fields: a live PRVSink
		// keeps its reserved line (and reports the overflow).
		header = prvReserved
	}
	per := prvRecordBound(r.maxCPU, len(r.tasks), r.end)
	buf := append(make([]byte, 0, len(header)+r.n*per), header...)
	parts := max(1, min(runtime.GOMAXPROCS(0), len(r.log)/exportRangeChunks))
	cut := func(i int) int { return len(r.log) * i / parts }
	rest := make([]*[]byte, parts)
	var wg sync.WaitGroup
	for i := 1; i < parts; i++ {
		lo, hi := cut(i), cut(i+1)
		b, _ := rangeBufs.Get().(*[]byte)
		if need := (hi - lo) * chunkCap * per; b == nil || cap(*b) < need {
			nb := make([]byte, 0, need)
			b = &nb
		}
		rest[i] = b
		wg.Add(1)
		go func() {
			defer wg.Done()
			*b = r.appendPRV((*b)[:0], lo, hi)
		}()
	}
	buf = r.appendPRV(buf, 0, cut(1))
	wg.Wait()
	for _, b := range rest[1:] {
		buf = append(buf, *b...)
		rangeBufs.Put(b)
	}
	// buf is never written again, so the string can share its bytes.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// appendPRV appends the .prv records of log chunks [lo, hi) to b.
func (r *Recorder) appendPRV(b []byte, lo, hi int) []byte {
	f := prvFormatter{last: make([]prvEnd, len(r.tasks))}
	for e := range r.entries(lo, hi) {
		b = f.record(b, int(e.task)+1, e.interval())
	}
	return b
}

// SortByName orders the recorded traces by task name (P1, P2, ...): the
// paper's figures list processes in rank order regardless of spawn order.
// Only the presentation order changes; .prv task IDs are fixed at
// first-seen time.
func (r *Recorder) SortByName() {
	sort.SliceStable(r.order, func(i, j int) bool {
		return r.order[i].Name < r.order[j].Name
	})
}
