package batch

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// job is a pure function of (index, item) with an index-dependent sleep,
// so completion order varies with worker count while results must not.
func job(_ context.Context, i int, item uint64) uint64 {
	time.Sleep(time.Duration(i%5) * time.Millisecond)
	return DeriveSeed(item, uint64(i))
}

func TestMapOrderedAndWorkerCountInvariant(t *testing.T) {
	items := make([]uint64, 64)
	for i := range items {
		items[i] = uint64(i) * 101
	}
	var want []uint64
	for _, w := range []int{1, 4, 8} {
		got, err := Map(context.Background(), Options{Workers: w}, items, job)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = got
			for i, item := range items {
				if got[i] != DeriveSeed(item, uint64(i)) {
					t.Fatalf("result %d out of order", i)
				}
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d produced different results", w)
		}
	}
}

func TestMapEmptyAndDefaults(t *testing.T) {
	out, err := Map(context.Background(), Options{}, nil, job)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
	// More workers than jobs, and Workers <= 0, must both just work.
	for _, w := range []int{-1, 0, 16} {
		out, err := Map(context.Background(), Options{Workers: w}, []uint64{7}, job)
		if err != nil || len(out) != 1 || out[0] != DeriveSeed(7, 0) {
			t.Fatalf("workers=%d: %v, %v", w, out, err)
		}
	}
}

func TestMapProgressOrderedAndComplete(t *testing.T) {
	items := make([]int, 40)
	var seen []int
	_, err := Map(context.Background(), Options{
		Workers:  8,
		Progress: func(done, total int) { seen = append(seen, done*1000+total) },
	}, items, func(_ context.Context, i, _ int) int { return i })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(items) {
		t.Fatalf("progress calls = %d, want %d", len(seen), len(items))
	}
	for i, v := range seen {
		if v != (i+1)*1000+len(items) {
			t.Fatalf("progress call %d = %d: not strictly increasing", i, v)
		}
	}
}

// TestMapGoexitReportsJob pins that a job ending by runtime.Goexit (a
// t.FailNow inside it, say) is reported by index instead of vanishing as a
// zero result, and that its worker's exit does not strand the later jobs.
func TestMapGoexitReportsJob(t *testing.T) {
	for _, w := range []int{1, 2} {
		var progress int
		out, err := Map(context.Background(), Options{
			Workers:  w,
			Progress: func(done, _ int) { progress = done },
		}, []int{1, 2, 3, 4}, func(_ context.Context, i, x int) int {
			if i == 1 {
				runtime.Goexit()
			}
			return x * 10
		})
		var ge *GoexitError
		if !errors.As(err, &ge) || ge.Index != 1 {
			t.Fatalf("workers=%d: err = %v, want a *GoexitError for job 1", w, err)
		}
		if !reflect.DeepEqual(out, []int{10, 0, 30, 40}) {
			t.Fatalf("workers=%d: out = %v, want [10 0 30 40]", w, out)
		}
		if progress != 4 {
			t.Fatalf("workers=%d: progress reached %d of 4", w, progress)
		}
	}
}

func TestMapCancellationPromptNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 100)
	var started, ran atomic.Int32
	release := make(chan struct{})

	result := make(chan error, 1)
	go func() {
		_, err := Map(ctx, Options{Workers: 4}, items, func(ctx context.Context, i, _ int) int {
			ran.Add(1)
			if started.Add(1) <= 4 {
				<-release // first wave blocks until the test releases it
			}
			return i
		})
		result <- err
	}()

	// Wait for the first wave to occupy every worker, then cancel.
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)

	select {
	case err := <-result:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Map did not return promptly after cancellation")
	}
	// No new jobs may start after cancellation: only the in-flight wave
	// (plus at most one racing claim per worker) ran.
	if n := ran.Load(); n > 8 {
		t.Fatalf("%d jobs ran after cancellation, want ≤ 8", n)
	}
	// Workers must exit: poll until the goroutine count returns to the
	// baseline (other tests' leftovers make exact equality too strict).
	deadline := time.After(2 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := Map(ctx, Options{Workers: 4}, make([]int, 50), func(_ context.Context, i, _ int) int {
		ran.Add(1)
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran on a pre-cancelled batch", ran.Load())
	}
}

func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, 0) != DeriveSeed(42, 0) {
		t.Fatal("not deterministic")
	}
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 5) == DeriveSeed(2, 5) {
		t.Fatal("base seed ignored")
	}
}

func TestSeedsPrefixStable(t *testing.T) {
	a, b := Seeds(42, 3), Seeds(42, 10)
	if !reflect.DeepEqual(a, b[:3]) {
		t.Fatal("growing the replica count perturbed earlier seeds")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Std != 2 {
		t.Fatalf("summary = %+v, want N=8 mean=5 std=2", s)
	}
	// Sample std = sqrt(32/7); CI95 = t(7) * sampleStd / sqrt(8).
	want := 2.365 * math.Sqrt(32.0/7.0) / math.Sqrt(8)
	if math.Abs(s.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %v, want %v", s.CI95, want)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 || z.Std != 0 || z.CI95 != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
	if one := Summarize([]float64{3}); one.Mean != 3 || one.CI95 != 0 {
		t.Fatalf("single summary = %+v", one)
	}
}

func TestTCrit95(t *testing.T) {
	if tCrit95(0) != 0 || tCrit95(1) != 12.706 || tCrit95(30) != 2.042 || tCrit95(1000) != 1.960 {
		t.Fatal("t table wrong")
	}
}
