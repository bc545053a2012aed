package trace

import (
	"math/rand"
	"testing"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// synthTrace is a deterministic stream of state transitions shaped like a
// traced BT-MZ run: a few dozen tasks on four CPUs, state changes every
// few microseconds, timestamps reaching ten digits. The stream is drawn
// up front, so replaying it costs the recorder's work alone.
type synthTrace struct {
	tasks []*sched.Task
	steps []synthStep
	now   sim.Time
	i     int
}

type synthStep struct {
	dt        sim.Time
	task, cpu int
	state     sched.State
}

func newSynthTrace(seed int64, tasks int) *synthTrace {
	rng := rand.New(rand.NewSource(seed))
	states := []sched.State{sched.StateRunnable, sched.StateRunning, sched.StateSleeping}
	s := &synthTrace{steps: make([]synthStep, 1<<16)}
	for i := 0; i < tasks; i++ {
		s.tasks = append(s.tasks, &sched.Task{Name: "P" + string(rune('A'+i%26))})
	}
	for i := range s.steps {
		s.steps[i] = synthStep{dt: sim.Time(rng.Intn(20)) * sim.Microsecond,
			task: rng.Intn(tasks), cpu: rng.Intn(4), state: states[rng.Intn(3)]}
	}
	return s
}

// next feeds one transition to rec.
func (s *synthTrace) next(rec *Recorder) {
	st := &s.steps[s.i%len(s.steps)]
	s.i++
	s.now += st.dt
	rec.TaskState(s.now, s.tasks[st.task], st.state, st.cpu)
}

// BenchmarkRecord measures the retaining recorder's cost per transition
// (ns/op is per TaskState call). The recorder is reset every 1<<16
// transitions, so the benchmark runs on a warm chunk free list.
//
//	go test -run '^$' -bench BenchmarkRecord ./internal/trace
func BenchmarkRecord(b *testing.B) {
	rec := NewRecorder()
	s := newSynthTrace(1, 32)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if i&(1<<16-1) == 0 {
			rec.Finish(s.now)
			rec.Reset()
		}
		s.next(rec)
	}
}

// BenchmarkExportPRV measures ExportPRV over a retained trace of about
// 13k intervals, the size of one traced BT-MZ run. Run it at -cpu 1,2 to
// see the range-parallel formatting.
//
//	go test -run '^$' -bench BenchmarkExportPRV -cpu 1,2 ./internal/trace
func BenchmarkExportPRV(b *testing.B) {
	rec := NewRecorder()
	s := newSynthTrace(1, 32)
	for countIntervals(rec) < 13_000 {
		s.next(rec)
	}
	rec.Finish(s.now)
	b.SetBytes(int64(len(rec.ExportPRV())))
	b.ReportAllocs()
	for b.Loop() {
		rec.ExportPRV()
	}
}

func countIntervals(rec *Recorder) int {
	n := 0
	for _, tt := range rec.Traces() {
		n += tt.Len()
	}
	return n
}
