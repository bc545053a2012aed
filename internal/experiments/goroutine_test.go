package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hpcsched/internal/faults"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// TestRunCtxReleasesProcessGoroutines: every process body runs as a
// coroutine backed by a goroutine of its own, and a run always ends with
// some bodies suspended mid-Invoke (the OS-noise daemons never exit). The
// kernel Shutdown must stop each of them, so after RunCtx returns — or
// panics — the goroutine count is back at its baseline, whether the run
// completed, hit its horizon, was cancelled, or a body panicked.
func TestRunCtxReleasesProcessGoroutines(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"completed", func(t *testing.T) {
			if _, err := RunCtx(context.Background(), fastCfg(1, faults.Spec{})); err != nil {
				t.Fatal(err)
			}
		}},
		{"horizon", func(t *testing.T) {
			cfg := fastCfg(2, faults.Spec{})
			cfg.Horizon = 50 * sim.Millisecond
			res, err := RunCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cluster.Capped[0] {
				t.Fatal("run was not capped by its horizon")
			}
		}},
		{"cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var aerr *AbortError
			if _, err := RunCtx(ctx, fastCfg(3, faults.Spec{})); !errors.As(err, &aerr) {
				t.Fatalf("err = %v, want *AbortError", err)
			}
		}},
		{"body panic", func(t *testing.T) {
			cfg := fastCfg(4, faults.Spec{})
			cfg.Prelude = func(k *sched.Kernel) {
				k.AddProcess(sched.TaskSpec{Name: "bomb", Policy: sched.PolicyNormal},
					func(env *sched.Env) {
						env.Sleep(sim.Millisecond)
						panic("injected body panic")
					})
			}
			defer func() {
				if recover() == nil {
					t.Fatal("the body's panic did not propagate out of RunCtx")
				}
			}()
			RunCtx(context.Background(), cfg)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c.run(t)
			// Coroutines end synchronously inside Shutdown; the short poll
			// only forgives goroutines of the test framework itself.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}
