package mpi

import (
	"testing"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// deliveryTime measures when a 0-byte message sent at t=0 from rank 0
// reaches a waiting rank 1, under the given world mutation.
func deliveryTime(t *testing.T, mutate func(w *World)) sim.Time {
	t.Helper()
	k, w := newWorld(t, 2)
	defer k.Shutdown()
	mutate(w)
	var arrived sim.Time
	w.Spawn(0, sched.TaskSpec{}, func(r *Rank) {
		r.Send(1, 0, 0)
	})
	w.Spawn(1, sched.TaskSpec{}, func(r *Rank) {
		r.Recv(0, 0)
		arrived = r.Now()
	})
	k.RunUntilWatchedExit(sim.Second)
	return arrived
}

// TestPairExtraComposesWithNodeExtra pins the per-node delay scoping:
// the per-rank-pair add-on (the cluster topology model) and the per-node
// add-on (the mpidelay: fault clause) must compose additively on the same
// message, not overwrite one global knob.
func TestPairExtraComposesWithNodeExtra(t *testing.T) {
	const (
		nodeExtra = 3 * sim.Millisecond
		pairExtra = 5 * sim.Millisecond
	)
	base := deliveryTime(t, func(w *World) {})
	node := deliveryTime(t, func(w *World) { w.SetNodeExtraDelay(0, nodeExtra) })
	pair := deliveryTime(t, func(w *World) { w.SetPairExtraDelay(0, 1, pairExtra) })
	both := deliveryTime(t, func(w *World) {
		w.SetNodeExtraDelay(0, nodeExtra)
		w.SetPairExtraDelay(0, 1, pairExtra)
	})
	if got := node - base; got != nodeExtra {
		t.Errorf("node extra shifted delivery by %v, want %v", got, nodeExtra)
	}
	if got := pair - base; got != pairExtra {
		t.Errorf("pair extra shifted delivery by %v, want %v", got, pairExtra)
	}
	if got := both - base; got != nodeExtra+pairExtra {
		t.Errorf("combined extras shifted delivery by %v, want %v (additive composition)",
			got, nodeExtra+pairExtra)
	}
}

// TestPairExtraIsDirectional: the pair matrix is directed; the reverse
// direction stays unshifted.
func TestPairExtraIsDirectional(t *testing.T) {
	k, w := newWorld(t, 2)
	defer k.Shutdown()
	w.SetPairExtraDelay(0, 1, 5*sim.Millisecond)
	if d := w.PairExtraDelay(1, 0); d != 0 {
		t.Errorf("reverse pair delay = %v, want 0", d)
	}
	if d := w.PairExtraDelay(0, 1); d != 5*sim.Millisecond {
		t.Errorf("forward pair delay = %v, want 5ms", d)
	}
}
