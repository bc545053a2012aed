package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapHardenedAllSucceed(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	out, failed, err := MapHardened(context.Background(), HardenedOptions{}, items,
		func(_ context.Context, _, _ int, x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed = %v, want none", failed)
	}
	for i, x := range items {
		if out[i] != x*x {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], x*x)
		}
	}
}

// TestMapHardenedGoexit pins that an attempt ending by runtime.Goexit is a
// failure of its job, not a zero-valued success.
func TestMapHardenedGoexit(t *testing.T) {
	for _, w := range []int{1, 2} {
		out, failed, err := MapHardened(context.Background(),
			HardenedOptions{Options: Options{Workers: w}}, []int{1, 2, 3, 4},
			func(_ context.Context, i, _ int, x int) (int, error) {
				if i == 1 {
					runtime.Goexit()
				}
				return x * 10, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		var ge *GoexitError
		if len(failed) != 1 || failed[0].Index != 1 || failed[0].Kind != KindGoexit ||
			!errors.As(failed[0], &ge) || ge.Index != 1 {
			t.Fatalf("workers=%d: failed = %v, want job 1 failed by goexit", w, failed)
		}
		if out[0] != 10 || out[1] != 0 || out[2] != 30 || out[3] != 40 {
			t.Fatalf("workers=%d: out = %v, want [10 0 30 40]", w, out)
		}
	}
}

func TestMapHardenedPanicIsolation(t *testing.T) {
	items := []int{0, 1, 2, 3}
	out, failed, err := MapHardened(context.Background(), HardenedOptions{}, items,
		func(_ context.Context, _, _ int, x int) (int, error) {
			if x == 2 {
				panic("replica blew up")
			}
			return x + 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 {
		t.Fatalf("failed = %v, want exactly the panicking job", failed)
	}
	je := failed[0]
	if je.Index != 2 || je.Kind != KindPanic || je.Attempts != 1 {
		t.Fatalf("JobError = %+v, want index 2, panic, 1 attempt", je)
	}
	if !strings.Contains(je.Err.Error(), "replica blew up") {
		t.Fatalf("panic value lost: %v", je.Err)
	}
	if je.Stack == "" || !strings.Contains(je.Stack, "goroutine") {
		t.Fatalf("panic stack not captured: %q", je.Stack)
	}
	// The healthy jobs finished; the failed slot holds the zero value.
	if out[0] != 10 || out[1] != 11 || out[3] != 13 || out[2] != 0 {
		t.Fatalf("out = %v", out)
	}
}

func TestMapHardenedRetryFreshAttempts(t *testing.T) {
	var calls [3]int32
	out, failed, err := MapHardened(context.Background(),
		HardenedOptions{MaxRetries: 2}, []int{0, 1, 2},
		func(_ context.Context, index, attempt int, x int) (int, error) {
			atomic.AddInt32(&calls[index], 1)
			if index == 1 && attempt < 2 {
				return 0, fmt.Errorf("transient failure on attempt %d", attempt)
			}
			return attempt, nil // expose which attempt succeeded
		})
	if err != nil || len(failed) != 0 {
		t.Fatalf("err=%v failed=%v, want clean finish after retries", err, failed)
	}
	if calls[1] != 3 {
		t.Fatalf("job 1 ran %d attempts, want 3", calls[1])
	}
	if out[1] != 2 {
		t.Fatalf("job 1 succeeded on attempt %d, want 2", out[1])
	}
	if calls[0] != 1 || calls[2] != 1 {
		t.Fatalf("healthy jobs re-ran: %v", calls)
	}
}

func TestMapHardenedRetriesExhausted(t *testing.T) {
	sentinel := errors.New("always fails")
	_, failed, err := MapHardened(context.Background(),
		HardenedOptions{MaxRetries: 3}, []int{0},
		func(_ context.Context, _, _ int, _ int) (int, error) { return 0, sentinel })
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 {
		t.Fatalf("failed = %v", failed)
	}
	je := failed[0]
	if je.Kind != KindError || je.Attempts != 4 {
		t.Fatalf("JobError = %+v, want error after 4 attempts", je)
	}
	if !errors.Is(je, sentinel) {
		t.Fatal("JobError does not unwrap to the final attempt's error")
	}
}

func TestMapHardenedTimeoutCooperative(t *testing.T) {
	_, failed, err := MapHardened(context.Background(),
		HardenedOptions{Timeout: 20 * time.Millisecond, Grace: time.Second}, []int{0},
		func(ctx context.Context, _, _ int, _ int) (int, error) {
			<-ctx.Done() // a live replica observes its cancelled context...
			return 0, ctx.Err()
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0].Kind != KindTimeout {
		t.Fatalf("failed = %v, want one timeout", failed)
	}
}

func TestMapHardenedWedgeAbandoned(t *testing.T) {
	unwedge := make(chan struct{})
	defer close(unwedge) // let the abandoned goroutine exit at test end
	start := time.Now()
	_, failed, err := MapHardened(context.Background(),
		HardenedOptions{Timeout: 10 * time.Millisecond, Grace: 20 * time.Millisecond},
		[]int{0},
		func(ctx context.Context, _, _ int, _ int) (int, error) {
			<-unwedge // ...a wedged one ignores it entirely
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0].Kind != KindWedged {
		t.Fatalf("failed = %v, want one wedged job", failed)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedge verdict took %v; the goroutine must be abandoned, not joined", elapsed)
	}
}

func TestMapHardenedCancelPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, _, err := MapHardened(ctx, HardenedOptions{}, []int{1, 2, 3},
		func(_ context.Context, _, _ int, x int) (int, error) { return x, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 3 {
		t.Fatalf("out keeps submission shape even when cancelled: %v", out)
	}
}

func TestSummarizeFinishedDegrades(t *testing.T) {
	xs := []float64{10, 11, 999, 12}
	ok := []bool{true, true, false, true}
	d := SummarizeFinished(xs, ok)
	full := Summarize([]float64{10, 11, 12})
	if d.N != 3 || d.Failed != 1 {
		t.Fatalf("N=%d Failed=%d, want 3/1", d.N, d.Failed)
	}
	if d.Mean != full.Mean || d.Std != full.Std || d.CI95 != full.CI95 {
		t.Fatalf("degraded summary %+v differs from summarizing the finished subset %+v", d, full)
	}
	// Fewer replicas ⇒ wider interval than the intact batch of the same values.
	intact := Summarize([]float64{10, 11, 11.5, 12})
	if d.CI95 <= intact.CI95 {
		t.Fatalf("CI did not widen: degraded %v vs intact %v", d.CI95, intact.CI95)
	}
}

func TestSummarizeFinishedMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched mask did not panic")
		}
	}()
	SummarizeFinished([]float64{1}, []bool{true, false})
}
