package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcsched/internal/mpi"
	"hpcsched/internal/power5"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
	"hpcsched/internal/workloads"
)

func newTestNode(node int, eng *sim.Engine) *sched.Kernel {
	return sched.NewKernel(eng, power5.NewChip(2, power5.NewCalibratedPerfModel()), sched.Options{})
}

// buildRingJob spawns two ranks per node running a global ring exchange:
// every iteration each rank computes, sends to its successor and receives
// from its predecessor, so every node border carries traffic both ways.
func buildRingJob(t *testing.T, cfg Config, iterations int) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Nodes * 2
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i / 2
	}
	c.NewWorld(nodes)
	rngs := c.RankRNGs(n, false)
	for i := 0; i < n; i++ {
		i := i
		rng := rngs[i]
		c.SpawnRank(i, sched.TaskSpec{}, func(r *mpi.Rank) {
			for it := 0; it < iterations; it++ {
				r.Compute(rng.Jitter(200*sim.Microsecond, 0.3))
				r.Send((i+1)%n, it, 4096)
				r.Recv((i+n-1)%n, it)
			}
		})
	}
	return c
}

// fingerprint renders everything observable about a finished run.
func fingerprint(c *Cluster, end sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v gvt=%v floor=%v\n", end, c.GVT(), c.Floor())
	for i := range c.Kernels {
		count, bytes, remote := c.World.NodeMsgStats(i)
		fmt.Fprintf(&b, "n%d end=%v capped=%v msgs=%d bytes=%d remote=%d\n",
			i, c.NodeEnd(i), c.Capped(i), count, bytes, remote)
	}
	return b.String()
}

func runRing(t *testing.T, nodes, shards int, topology string, seed uint64) string {
	t.Helper()
	c := buildRingJob(t, Config{
		Nodes: nodes, Shards: shards, Topology: topology, Seed: seed,
		MPI: mpi.DefaultOptions(), NewNode: newTestNode,
	}, 40)
	defer c.Shutdown()
	end, err := c.Run(0)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	for i := range c.Kernels {
		if c.Capped(i) {
			t.Fatalf("node %d capped at the horizon; the exchange deadlocked", i)
		}
	}
	return fingerprint(c, end)
}

// TestShardInvariance is the core PDES property: the simulation is
// byte-identical at 1 shard (sequential), 4 shards and GOMAXPROCS shards,
// on every topology.
func TestShardInvariance(t *testing.T) {
	for _, topo := range []string{"flat", "ring", "star"} {
		t.Run(topo, func(t *testing.T) {
			want := runRing(t, 4, 1, topo, 42)
			for _, shards := range []int{2, 4, runtime.GOMAXPROCS(0)} {
				if got := runRing(t, 4, shards, topo, 42); got != want {
					t.Errorf("shards=%d diverges from sequential:\n got:\n%s\nwant:\n%s",
						shards, got, want)
				}
			}
		})
	}
}

// TestSeedsDiffer guards against the fingerprint being insensitive: two
// different seeds must not produce the identical run.
func TestSeedsDiffer(t *testing.T) {
	if runRing(t, 2, 2, "flat", 1) == runRing(t, 2, 2, "flat", 2) {
		t.Fatal("different seeds produced identical runs; fingerprint is blind")
	}
}

// TestZeroLookaheadRejected pins the deadlock regression: a latency floor
// of zero would make the conservative horizon vacuous, so Finalize must
// reject it with a structured error before anything runs.
func TestZeroLookaheadRejected(t *testing.T) {
	opts := mpi.DefaultOptions()
	opts.RemoteLatency = 0
	c := buildRingJob(t, Config{
		Nodes: 2, Shards: 1, Seed: 1, MPI: opts, NewNode: newTestNode,
	}, 1)
	defer c.Shutdown()
	err := c.Finalize()
	var le *LookaheadError
	if !errors.As(err, &le) {
		t.Fatalf("Finalize = %v, want *LookaheadError", err)
	}
	if le.Floor != 0 {
		t.Errorf("LookaheadError.Floor = %v, want 0", le.Floor)
	}
	// Run must surface the same rejection when Finalize was skipped.
	c2 := buildRingJob(t, Config{
		Nodes: 2, Shards: 1, Seed: 1, MPI: opts, NewNode: newTestNode,
	}, 1)
	defer c2.Shutdown()
	if _, err := c2.Run(0); !errors.As(err, &le) {
		t.Fatalf("Run after skipped Finalize = %v, want *LookaheadError", err)
	}
}

// TestUnknownTopologyRejected: the topology is validated up front.
func TestUnknownTopologyRejected(t *testing.T) {
	_, err := New(Config{Nodes: 2, Topology: "mesh", MPI: mpi.DefaultOptions(), NewNode: newTestNode})
	if err == nil {
		t.Fatal("New accepted an unknown topology")
	}
}

// TestHorizonCap: ranks that outlive the horizon leave their nodes marked
// capped, at exactly the horizon, identically at any shard count.
func TestHorizonCap(t *testing.T) {
	run := func(shards int) string {
		c, err := New(Config{
			Nodes: 2, Shards: shards, Seed: 7,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.NewWorld([]int{0, 1})
		for i := 0; i < 2; i++ {
			i := i
			c.SpawnRank(i, sched.TaskSpec{}, func(r *mpi.Rank) {
				for it := 0; ; it++ {
					r.Compute(1 * sim.Millisecond)
					r.Send(1-i, it, 64)
					r.Recv(1-i, it)
				}
			})
		}
		end, err := c.Run(20 * sim.Millisecond)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		if end != 20*sim.Millisecond {
			t.Fatalf("end = %v, want the 20ms horizon", end)
		}
		for i := 0; i < 2; i++ {
			if !c.Capped(i) {
				t.Errorf("node %d not capped", i)
			}
		}
		return fingerprint(c, end)
	}
	if a, b := run(1), run(2); a != b {
		t.Errorf("capped run diverges across shards:\n got:\n%s\nwant:\n%s", b, a)
	}
}

// TestInterruptAborts: an engine interrupt (the hook watchdogs and contexts
// ride) with ranks still pending aborts the whole cluster with a structured
// *InterruptError naming the node.
func TestInterruptAborts(t *testing.T) {
	c := buildRingJob(t, Config{
		Nodes: 2, Shards: 2, Seed: 3,
		MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		OnNodeStop: func(node int) error { return fmt.Errorf("stopped by test (node %d)", node) },
	}, 1_000_000)
	defer c.Shutdown()
	eng := c.Engines[1]
	eng.SetInterrupt(64, func() bool { return eng.Now() > 5*sim.Millisecond })
	_, err := c.Run(0)
	var ie *InterruptError
	if !errors.As(err, &ie) {
		t.Fatalf("Run = %v, want *InterruptError", err)
	}
	if ie.Node != 1 {
		t.Errorf("InterruptError.Node = %d, want 1", ie.Node)
	}
	if ie.Cause == nil || !strings.Contains(ie.Cause.Error(), "stopped by test") {
		t.Errorf("InterruptError.Cause = %v, want the OnNodeStop verdict", ie.Cause)
	}
}

// TestCollectivesCrossNode: Barrier and the rooted collectives must work
// over the interconnect (the cluster barrier is message-based).
func TestCollectivesCrossNode(t *testing.T) {
	run := func(shards int) sim.Time {
		c, err := New(Config{
			Nodes: 2, Shards: shards, Seed: 11,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.NewWorld([]int{0, 0, 1, 1})
		for i := 0; i < 4; i++ {
			i := i
			c.SpawnRank(i, sched.TaskSpec{}, func(r *mpi.Rank) {
				for it := 0; it < 10; it++ {
					r.Compute(sim.Time(100+50*i) * sim.Microsecond)
					r.Barrier()
				}
				r.Allreduce(1024)
				r.Bcast(0, 2048)
			})
		}
		end, err := c.Run(0)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		for i := 0; i < 2; i++ {
			if c.Capped(i) {
				t.Fatalf("node %d capped; a collective hung", i)
			}
		}
		return end
	}
	if a, b := run(1), run(2); a != b {
		t.Errorf("collective run diverges across shards: %v vs %v", a, b)
	}
}

// TestLookaheadFloorPacingEquivalence is the pacing half of the PDES
// determinism claim: the EOT/EIT lookahead horizon only moves window
// boundaries, so a run under it is byte-identical to the same run under
// the clock+floor cadence, on every topology and at several shard counts.
func TestLookaheadFloorPacingEquivalence(t *testing.T) {
	for _, topo := range []string{"flat", "ring", "star"} {
		t.Run(topo, func(t *testing.T) {
			run := func(floorPacing bool, shards int) string {
				c := buildRingJob(t, Config{
					Nodes: 4, Shards: shards, Topology: topo, Seed: 42,
					FloorPacing: floorPacing,
					MPI:         mpi.DefaultOptions(), NewNode: newTestNode,
				}, 40)
				defer c.Shutdown()
				end, err := c.Run(0)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				return fingerprint(c, end)
			}
			want := run(true, 1)
			for _, shards := range []int{1, 2, 4} {
				if got := run(false, shards); got != want {
					t.Errorf("lookahead shards=%d diverges from floor pacing:\n got:\n%s\nwant:\n%s",
						shards, got, want)
				}
			}
		})
	}
}

// TestIdlePeerDoesNotBlockEIT pins the point of the EOT/EIT horizon: a
// peer with no pending sends must not hold its neighbours to the floor
// cadence. Node 1 computes one long stretch and exits without ever
// sending, while node 0's pair exchanges locally; under floor pacing the
// run costs ~span/floor windows, under lookahead the idle stretch must
// collapse to a handful.
func TestIdlePeerDoesNotBlockEIT(t *testing.T) {
	run := func(floorPacing bool) (*Cluster, sim.Time) {
		c, err := New(Config{
			Nodes: 2, Shards: 1, Seed: 9,
			FloorPacing: floorPacing,
			MPI:         mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld([]int{0, 0, 1})
		for i := 0; i < 2; i++ {
			i := i
			c.SpawnRank(i, sched.TaskSpec{}, func(r *mpi.Rank) {
				for it := 0; it < 25; it++ {
					r.Compute(2 * sim.Millisecond)
					r.Send(1-i, it, 512)
					r.Recv(1-i, it)
				}
			})
		}
		c.SpawnRank(2, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(55 * sim.Millisecond)
		})
		end, err := c.Run(0)
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return c, end
	}
	floor, floorEnd := run(true)
	defer floor.Shutdown()
	eot, eotEnd := run(false)
	defer eot.Shutdown()
	if fingerprint(floor, floorEnd) != fingerprint(eot, eotEnd) {
		t.Fatalf("pacing changed the simulation:\nfloor:\n%s\neot:\n%s",
			fingerprint(floor, floorEnd), fingerprint(eot, eotEnd))
	}
	fw, ew := floor.Windows(), eot.Windows()
	if ew*10 > fw {
		t.Errorf("lookahead windows = %d, floor windows = %d; want ≥10x collapse", ew, fw)
	}
	if eot.WindowsElided() == 0 {
		t.Errorf("lookahead run reports WindowsElided = 0; the idle stretch was not collapsed")
	}
	if floor.WindowsElided() != 0 {
		t.Errorf("floor-paced run reports WindowsElided = %d, want 0", floor.WindowsElided())
	}
}

// TestPendingSendKeepsNodeAdvancing pins the first guard of demand-driven
// windows: a node whose cross-node send is deferred behind a compute
// publishes its clock as its bound, so it must keep running windows even
// though none of them is due. Rank 0 queues 5ms of work ahead of its send
// (after a first blocking compute, so every rank is placed before the send
// is issued), and node 1 has nothing to do until the message lands: were
// the not-due skip applied to node 0, its clock — and with it node 1's EIT
// and its own round-trip horizon — would never move, and the run would
// stall.
func TestPendingSendKeepsNodeAdvancing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c, err := New(Config{
			Nodes: 2, Shards: shards, Seed: 5,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld([]int{0, 1})
		c.SpawnRank(0, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(10 * sim.Microsecond)
			r.Env().DeferCompute(5 * sim.Millisecond)
			r.Send(1, 0, 64)
			r.Recv(1, 1)
		})
		c.SpawnRank(1, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Send(0, 1, 64)
			r.Recv(0, 0)
		})
		var forced int
		c.onWindow = func(w windowStat) {
			if w.node == 0 && w.pendingSends {
				forced++ // single writer: node 0 has one owner shard
			}
		}
		end, err := c.Run(0)
		c.Shutdown()
		if err != nil {
			t.Fatalf("shards=%d: run failed: %v", shards, err)
		}
		if c.Capped(0) || c.Capped(1) {
			t.Fatalf("shards=%d: a node capped at the horizon", shards)
		}
		if end < 5*sim.Millisecond {
			t.Errorf("shards=%d: end = %v, before the deferred compute finished", shards, end)
		}
		if forced < 2 {
			t.Errorf("shards=%d: %d windows ran with a send pending; the compute did not straddle a window boundary",
				shards, forced)
		}
	}
}

// runBTMZ runs a 4-node, 2-iteration BT-MZ job and returns the cluster.
func runBTMZ(t *testing.T, shards int, onWindow func(windowStat)) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes: 4, Shards: shards, Seed: 42,
		MPI: mpi.DefaultOptions(), NewNode: newTestNode,
	})
	if err != nil {
		t.Fatal(err)
	}
	wc := workloads.DefaultBTMZ()
	wc.Iterations = 2
	workloads.BuildBTMZ(c, wc)
	c.onWindow = onWindow
	if _, err := c.Run(0); err != nil {
		c.Shutdown()
		t.Fatalf("run failed: %v", err)
	}
	c.Shutdown()
	return c
}

// TestBTMZWindowCount pins the window count of a fixed run exactly. At one
// shard the visit order — and so every window boundary — is a pure
// function of the simulation, so any change to the pacing shows up here as
// a different count, even one that leaves the timeline intact.
func TestBTMZWindowCount(t *testing.T) {
	const want = 454
	if got := runBTMZ(t, 1, nil).Windows(); got != want {
		t.Errorf("Windows() = %d, want %d", got, want)
	}
}

// TestWindowsAreDue: under EOT/EIT pacing a window runs only when due, so
// every executed window fires or injects at least one event — except the
// horizon-capped ones and those forced by a send pending behind a compute.
// Windows() counts exactly the executed windows.
func TestWindowsAreDue(t *testing.T) {
	check := func(t *testing.T, run func(onWindow func(windowStat)) *Cluster) {
		var mu sync.Mutex
		var seen, empty int64
		c := run(func(w windowStat) {
			mu.Lock()
			defer mu.Unlock()
			seen++
			if w.fired+w.injected == 0 && !w.capped && !w.pendingSends {
				empty++
			}
		})
		if empty > 0 {
			t.Errorf("%d of %d windows were not due", empty, seen)
		}
		if got := c.Windows(); got != seen {
			t.Errorf("Windows() = %d, observed %d executed windows", got, seen)
		}
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("btmz/shards%d", shards), func(t *testing.T) {
			check(t, func(onWindow func(windowStat)) *Cluster { return runBTMZ(t, shards, onWindow) })
		})
		for _, topo := range []string{"flat", "star"} {
			t.Run(fmt.Sprintf("ring-%s/shards%d", topo, shards), func(t *testing.T) {
				check(t, func(onWindow func(windowStat)) *Cluster {
					c := buildRingJob(t, Config{
						Nodes: 4, Shards: shards, Topology: topo, Seed: 42,
						MPI: mpi.DefaultOptions(), NewNode: newTestNode,
					}, 40)
					c.onWindow = onWindow
					defer c.Shutdown()
					if _, err := c.Run(0); err != nil {
						t.Fatalf("run failed: %v", err)
					}
					return c
				})
			})
		}
	}
}

// TestStallReported: when no shard can make progress the run must abort
// with a *StallError naming every node's synchronisation state, not hang.
// The stall is forced by pinning node 1's bound: a phantom undrained
// message holds its fire cap on the 1→0 queue at instant 0, so node 0's
// EIT never passes the latency floor and the two nodes wait on each other.
func TestStallReported(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c := buildRingJob(t, Config{
			Nodes: 2, Shards: shards, Seed: 3,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		}, 40)
		q := c.queues[1][0]
		q.n.Store(1)
		q.capW = 0
		c.armed[1]++
		done := make(chan error, 1)
		go func() {
			_, err := c.Run(0)
			done <- err
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(time.Minute):
			t.Fatalf("shards=%d: stalled run did not return", shards)
		}
		c.Shutdown()
		var se *StallError
		if !errors.As(err, &se) {
			t.Fatalf("shards=%d: Run = %v, want *StallError", shards, err)
		}
		if len(se.Nodes) != 2 {
			t.Fatalf("shards=%d: dump has %d nodes, want 2", shards, len(se.Nodes))
		}
		n1 := se.Nodes[1]
		if n1.EOT != 0 || n1.ArmedCaps != 1 {
			t.Errorf("shards=%d: node 1 dump = %+v, want the pinned bound 0 with one armed cap", shards, n1)
		}
		if want := c.Floor(); se.Nodes[0].EIT != want {
			t.Errorf("shards=%d: node 0 EIT = %v, want the floor %v", shards, se.Nodes[0].EIT, want)
		}
		msg := err.Error()
		for _, s := range []string{"stalled", "next_event", "eit", "armed", "inbound"} {
			if !strings.Contains(msg, s) {
				t.Errorf("shards=%d: error text lacks %q:\n%s", shards, s, msg)
			}
		}
	}
}

// TestDeadlockedJobCaps pins the second guard of demand-driven windows: a
// window reaching the run horizon always runs, even with nothing due. A
// job whose rank waits for a message nobody sends drains its engine, so
// only that final window can cap the node; skipping it would stall.
func TestDeadlockedJobCaps(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c, err := New(Config{
			Nodes: 2, Shards: shards, Seed: 5,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld([]int{0, 1})
		c.SpawnRank(0, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(100 * sim.Microsecond)
			r.Recv(1, 0)
		})
		c.SpawnRank(1, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(200 * sim.Microsecond)
		})
		end, err := c.Run(50 * sim.Millisecond)
		c.Shutdown()
		if err != nil {
			t.Fatalf("shards=%d: run failed: %v", shards, err)
		}
		if !c.Capped(0) || c.Capped(1) || end != 50*sim.Millisecond {
			t.Errorf("shards=%d: end=%v capped=%v/%v, want node 0 alone capped at 50ms",
				shards, end, c.Capped(0), c.Capped(1))
		}
	}
}

// TestSendBeforePeerSpawn: a rank body runs eagerly at spawn, up to its
// first blocking call, so rank 0 here sends to rank 1 before rank 1 is
// spawned. NewWorld has already placed rank 1 on node 1, so the send is
// priced and routed as inter-node traffic — it must not be delivered as a
// node-local message on the sender's engine.
func TestSendBeforePeerSpawn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		c, err := New(Config{
			Nodes: 2, Shards: shards, Seed: 3,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld([]int{0, 1})
		c.SpawnRank(0, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Send(1, 0, 0)
			r.Recv(1, 1)
		})
		var arrived sim.Time
		c.SpawnRank(1, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Recv(0, 0)
			arrived = r.Now()
			r.Send(0, 1, 0)
			r.Compute(sim.Millisecond)
		})
		_, err = c.Run(0)
		c.Shutdown()
		if err != nil {
			t.Fatalf("shards=%d: run failed: %v", shards, err)
		}
		if c.Capped(0) || c.Capped(1) {
			t.Fatalf("shards=%d: a node capped at the horizon; the message was lost", shards)
		}
		if lat := mpi.DefaultOptions().RemoteLatency; arrived < lat {
			t.Errorf("shards=%d: message arrived at %v, before the %v inter-node latency", shards, arrived, lat)
		}
		if _, _, remote := c.World.NodeMsgStats(0); remote != 1 {
			t.Errorf("shards=%d: node 0 sent %d remote messages, want 1", shards, remote)
		}
	}
}
