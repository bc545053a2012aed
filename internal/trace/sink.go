package trace

import (
	"fmt"
	"io"
	"strconv"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// Sink consumes trace records as a Recorder built with NewRecorderWithSink
// produces them: PRVSink streams Paraver records to a writer; NullSink
// discards everything. Recorder.Replay feeds a retained history through
// one. All methods are called on the simulation goroutine, in event order.
type Sink interface {
	// BeginTask announces a newly admitted task (its ID is assigned).
	BeginTask(tt *TaskTrace)
	// Interval consumes one closed interval of tt.
	Interval(tt *TaskTrace, iv Interval)
	// PrioChange consumes one hardware-priority transition of tt.
	PrioChange(tt *TaskTrace, pc PrioChange)
	// Finish marks the end of the trace at the given time.
	Finish(end sim.Time)
}

// NullSink drops every record: tracing runs at full fidelity (state
// coalescing, filter, end-time tracking) with zero retention. The perf
// suite uses it to measure recording overhead alone.
type NullSink struct{}

func (NullSink) BeginTask(*TaskTrace)              {}
func (NullSink) Interval(*TaskTrace, Interval)     {}
func (NullSink) PrioChange(*TaskTrace, PrioChange) {}
func (NullSink) Finish(sim.Time)                   {}

// prvHeaderFmt is the fixed-width .prv header. The totals it carries (end
// time, CPU count, task count) are only known once the run ends, so the
// streaming sink reserves the line up front and patches it in Finish —
// fixed-width fields keep the byte length constant.
const prvHeaderFmt = "#Paraver (hpcsched):%020d_ns:1(%04d):1:%06d\n"

// prvHeader renders the header for the given totals.
func prvHeader(end sim.Time, cpus, tasks int) string {
	if cpus <= 0 {
		cpus = 1
	}
	return fmt.Sprintf(prvHeaderFmt, int64(end), cpus, tasks)
}

// prvReserved is the header line a streaming sink writes before the
// totals are known.
var prvReserved = prvHeader(0, 1, 0)

// prvCodes maps a scheduling state to the digit of its Paraver state code
// (0: not exported).
var prvCodes = [...]byte{sched.StateRunning: '1', sched.StateSleeping: '3', sched.StateRunnable: '7'}

// prvFormatter appends .prv state records "1:cpu:1:task:1:begin:end:state".
// Recorder.ExportPRV and PRVSink both format through it, so the export and
// the live stream cannot drift. A task's next interval almost always
// begins where its last one ended, so the formatter remembers where each
// task's last end time sits in the buffer and copies those digits instead
// of formatting the number again.
type prvFormatter struct {
	last []prvEnd // by task ID − 1
}

// prvEnd locates a task's last end time in the buffer (n == 0: none).
type prvEnd struct {
	to     sim.Time
	off, n int
}

// record appends to b the record of task id's interval iv (nothing for a
// state without a Paraver code). b must be the buffer of the formatter's
// previous records, or they must have been forgotten (clear(f.last)).
func (f *prvFormatter) record(b []byte, id int, iv Interval) []byte {
	var code byte
	if uint(iv.State) < uint(len(prvCodes)) {
		code = prvCodes[iv.State]
	}
	if code == 0 {
		return b
	}
	b = append(b, '1', ':')
	b = strconv.AppendInt(b, int64(iv.CPU+1), 10)
	b = append(b, ':', '1', ':')
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, ':', '1', ':')
	var last *prvEnd
	if i := id - 1; i >= 0 && i < len(f.last) {
		last = &f.last[i]
	}
	if last != nil && last.n > 0 && last.to == iv.From {
		b = append(b, b[last.off:last.off+last.n]...)
	} else {
		b = strconv.AppendInt(b, int64(iv.From), 10)
	}
	b = append(b, ':')
	off := len(b)
	b = strconv.AppendInt(b, int64(iv.To), 10)
	if last != nil {
		*last = prvEnd{to: iv.To, off: off, n: len(b) - off}
	}
	return append(b, ':', code, '\n')
}

// prvRecordBound bounds the length of one record whose CPU, task ID and
// times are non-negative and at most the given totals.
func prvRecordBound(cpus, tasks int, end sim.Time) int {
	digits := func(x int64) int { return len(strconv.FormatInt(x, 10)) }
	return len("1::1::1:::x\n") + digits(int64(cpus)) + digits(int64(tasks)) + 2*digits(int64(end))
}

// prvFlushAt is the buffered size at which PRVSink writes its records out.
const prvFlushAt = 1 << 16

// PRVSink streams simplified Paraver state records to w as intervals
// close, so a run can be traced to disk without retaining history. The
// header is reserved at construction and patched in Finish, which is why w
// must support Seek (an *os.File does).
// Output is byte-identical to Recorder.ExportPRV over the same run.
type PRVSink struct {
	w        io.WriteSeeker
	buf      []byte
	f        prvFormatter
	maxCPU   int
	nTasks   int
	finished bool
	err      error
}

// NewPRVSink returns a streaming .prv sink over w; the reserved header
// leads its first write.
func NewPRVSink(w io.WriteSeeker) *PRVSink {
	return &PRVSink{w: w, buf: append(make([]byte, 0, prvFlushAt+256), prvReserved...)}
}

// Err returns the first write or seek error the sink hit (records after an
// error are dropped).
func (p *PRVSink) Err() error { return p.err }

// BeginTask implements Sink.
func (p *PRVSink) BeginTask(tt *TaskTrace) {
	if tt.ID > p.nTasks {
		p.nTasks = tt.ID
	}
	for len(p.f.last) < tt.ID {
		p.f.last = append(p.f.last, prvEnd{})
	}
}

// Interval implements Sink: one "1:cpu:1:task:1:begin:end:state" record.
func (p *PRVSink) Interval(tt *TaskTrace, iv Interval) {
	if iv.CPU+1 > p.maxCPU {
		p.maxCPU = iv.CPU + 1
	}
	if p.err != nil {
		return
	}
	p.buf = p.f.record(p.buf, tt.ID, iv)
	if len(p.buf) >= prvFlushAt {
		p.flush()
	}
}

// flush writes the buffered records out. The formatter's end-time
// positions pointed into them, so they are forgotten.
func (p *PRVSink) flush() {
	_, p.err = p.w.Write(p.buf)
	p.buf = p.buf[:0]
	clear(p.f.last)
}

// PrioChange implements Sink (priority transitions are not part of the
// simplified .prv state stream).
func (p *PRVSink) PrioChange(*TaskTrace, PrioChange) {}

// Finish implements Sink: flush the records and patch the reserved header
// with the final totals.
func (p *PRVSink) Finish(end sim.Time) {
	if p.finished {
		return
	}
	p.finished = true
	if p.err == nil {
		p.flush()
	}
	if p.err != nil {
		return
	}
	header := prvHeader(end, p.maxCPU, p.nTasks)
	if len(header) != len(prvReserved) {
		// Totals overflowed the reserved fixed-width fields; patching
		// would overwrite the first record. Report instead of corrupting.
		p.err = fmt.Errorf("trace: .prv header overflow (end=%d cpus=%d tasks=%d)",
			int64(end), p.maxCPU, p.nTasks)
		return
	}
	if _, p.err = p.w.Seek(0, io.SeekStart); p.err != nil {
		return
	}
	if _, p.err = io.WriteString(p.w, header); p.err != nil {
		return
	}
	_, p.err = p.w.Seek(0, io.SeekEnd)
}
