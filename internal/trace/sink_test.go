package trace

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// runTracedWith executes a deterministic two-task workload on a fresh
// kernel with the given recorder installed and finishes the recorder.
func runTracedWith(rec *Recorder) {
	e := sim.NewEngine(7)
	chip := power5.NewChip(2, power5.NewCalibratedPerfModel())
	k := sched.NewKernel(e, chip, sched.DefaultOptions())
	k.SetTracer(rec)
	for i := 0; i < 2; i++ {
		d := sim.Time(i+1) * 3 * sim.Millisecond
		task := k.AddProcess(sched.TaskSpec{Name: "P" + string(rune('1'+i)), Affinity: 1 << uint(i)},
			func(env *sched.Env) {
				for it := 0; it < 4; it++ {
					env.Compute(d)
					env.Sleep(2 * sim.Millisecond)
				}
			})
		k.Watch(task)
	}
	k.RunUntilWatchedExit(sim.Second)
	rec.Finish(k.Now())
	k.Shutdown()
}

// TestSinkEquivalencePRV runs the same deterministic workload twice —
// once retained in memory and exported, once streamed live through a
// PRVSink — and requires byte-identical output.
func TestSinkEquivalencePRV(t *testing.T) {
	mem := NewRecorder()
	runTracedWith(mem)
	exported := mem.ExportPRV()

	var buf seekBuffer
	sink := NewPRVSink(&buf)
	runTracedWith(NewRecorderWithSink(sink))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	streamed := buf.String()

	if exported != streamed {
		t.Fatalf("in-memory export and streamed .prv differ:\n mem: %q\nlive: %q",
			head(exported, 400), head(streamed, 400))
	}
	if !strings.HasPrefix(streamed, "#Paraver") {
		t.Fatalf("header missing: %q", head(streamed, 60))
	}
	if strings.Count(streamed, "\n") < 5 {
		t.Fatalf("suspiciously short trace: %q", streamed)
	}
}

// TestSinkEquivalenceAfterSort checks that SortByName (presentation
// order) does not disturb the exported task IDs: the export is still
// byte-identical to the live stream.
func TestSinkEquivalenceAfterSort(t *testing.T) {
	mem := NewRecorder()
	runTracedWith(mem)
	before := mem.ExportPRV()
	mem.SortByName()
	if after := mem.ExportPRV(); after != before {
		t.Fatal("SortByName changed the .prv export")
	}
}

// TestNullSinkRecords runs through the NullSink: tasks are admitted (with
// IDs), end time advances, but nothing is retained.
func TestNullSinkRecords(t *testing.T) {
	rec := NewRecorderWithSink(NullSink{})
	runTracedWith(rec)
	if rec.Retains() {
		t.Fatal("sink recorder claims to retain")
	}
	traces := rec.Traces()
	if len(traces) != 2 {
		t.Fatalf("admitted %d tasks, want 2", len(traces))
	}
	for i, tt := range traces {
		if tt.ID != i+1 {
			t.Fatalf("task %d has ID %d", i, tt.ID)
		}
		if tt.Len() != 0 {
			t.Fatalf("null-sink trace retained %d intervals", tt.Len())
		}
	}
	if rec.End() == 0 {
		t.Fatal("end time not tracked")
	}
}

// TestReplayRequiresRetention pins the contract: streaming recorders have
// no history to replay.
func TestReplayRequiresRetention(t *testing.T) {
	rec := NewRecorderWithSink(NullSink{})
	defer func() {
		if recover() == nil {
			t.Fatal("Replay on a streaming recorder did not panic")
		}
	}()
	rec.Replay(NullSink{})
}

// TestSeekBuffer covers the in-memory WriteSeeker backing the tests.
func TestSeekBuffer(t *testing.T) {
	var b seekBuffer
	if _, err := b.Write([]byte("hello world")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("HELLO")); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "HELLO world" {
		t.Fatalf("patched buffer = %q", got)
	}
	if n, err := b.Seek(0, 2); err != nil || n != 11 {
		t.Fatalf("seek end = %d, %v", n, err)
	}
	if _, err := b.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "HELLO world!" {
		t.Fatalf("appended buffer = %q", got)
	}
}

func head(s string, n int) string {
	if len(s) > n {
		return s[:n] + "..."
	}
	return s
}

// seekBuffer is a minimal in-memory io.WriteSeeker backing the
// sink-equivalence tests.
type seekBuffer struct {
	b   []byte
	off int
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if need := s.off + len(p); need > len(s.b) {
		if need <= cap(s.b) {
			s.b = s.b[:need]
		} else {
			nb := make([]byte, need, need*2)
			copy(nb, s.b)
			s.b = nb
		}
	}
	copy(s.b[s.off:], p)
	s.off += len(p)
	return len(p), nil
}

func (s *seekBuffer) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = int64(s.off) + offset
	case io.SeekEnd:
		abs = int64(len(s.b)) + offset
	default:
		return 0, fmt.Errorf("trace: bad seek whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("trace: negative seek offset")
	}
	s.off = int(abs)
	return abs, nil
}

func (s *seekBuffer) String() string { return string(s.b) }

func (s *seekBuffer) Len() int { return len(s.b) }

// TestExportPRVAnyGOMAXPROCS checks the range-parallel export: a log long
// enough to be cut into up to four ranges gives the live stream's bytes at
// every GOMAXPROCS.
func TestExportPRVAnyGOMAXPROCS(t *testing.T) {
	mem := NewRecorder()
	var buf seekBuffer
	live := NewRecorderWithSink(NewPRVSink(&buf))
	sm, sl := newSynthTrace(3, 24), newSynthTrace(3, 24)
	for i := 0; i < 8*exportRangeChunks*chunkCap; i++ {
		sm.next(mem)
		sl.next(live)
	}
	mem.Finish(sm.now)
	live.Finish(sl.now)
	if len(mem.log) < 4*exportRangeChunks {
		t.Fatalf("log of %d chunks is too short to cut into four ranges", len(mem.log))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4} {
		runtime.GOMAXPROCS(procs)
		if got := mem.ExportPRV(); got != buf.String() {
			t.Fatalf("GOMAXPROCS=%d: export (%d bytes) differs from the live stream (%d bytes)",
				procs, len(got), buf.Len())
		}
	}
}
