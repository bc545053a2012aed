package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

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
		c.World.Spawn(i, sched.TaskSpec{}, func(r *mpi.Rank) {
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

func runRing(t *testing.T, nodes int, topology string, seed uint64, floorPacing bool) string {
	t.Helper()
	c := buildRingJob(t, Config{
		Nodes: nodes, Topology: topology, Seed: seed, FloorPacing: floorPacing,
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

// TestShardInvariance is the core PDES property: where the windows fall is
// invisible to the simulation. On every topology and at several node
// counts, the run cut by the lookahead calendar is byte-identical to the
// same run cut at every latency floor (FloorPacing), and neither depends on
// how many OS threads carry the rank goroutines: each rank still hands off
// to its engine through internal/proc, so GOMAXPROCS 1 and 4 must agree.
// The name predates the sequential calendar, when shard scheduling cut
// the windows.
func TestShardInvariance(t *testing.T) {
	for _, topo := range []string{"flat", "ring", "star"} {
		t.Run(topo, func(t *testing.T) {
			for _, nodes := range []int{2, 3, 8} {
				want := runRing(t, nodes, topo, 42, false)
				if got := runRing(t, nodes, topo, 42, true); got != want {
					t.Errorf("nodes=%d: floor-cut run diverges from the calendar's windows:\n got:\n%s\nwant:\n%s",
						nodes, got, want)
				}
				for _, procs := range []int{1, 4} {
					prev := runtime.GOMAXPROCS(procs)
					got := runRing(t, nodes, topo, 42, false)
					runtime.GOMAXPROCS(prev)
					if got != want {
						t.Errorf("nodes=%d: GOMAXPROCS=%d diverges:\n got:\n%s\nwant:\n%s",
							nodes, procs, got, want)
					}
				}
			}
		})
	}
}

// TestSeedsDiffer guards against the fingerprint being insensitive: two
// different seeds must not produce the identical run.
func TestSeedsDiffer(t *testing.T) {
	if runRing(t, 2, "flat", 1, false) == runRing(t, 2, "flat", 2, false) {
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
		Nodes: 2, Seed: 1, MPI: opts, NewNode: newTestNode,
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
		Nodes: 2, Seed: 1, MPI: opts, NewNode: newTestNode,
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
// capped, at exactly the horizon, identically under either window cut.
func TestHorizonCap(t *testing.T) {
	run := func(floorPacing bool) string {
		c, err := New(Config{
			Nodes: 2, Seed: 7, FloorPacing: floorPacing,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.NewWorld([]int{0, 1})
		for i := 0; i < 2; i++ {
			i := i
			c.World.Spawn(i, sched.TaskSpec{}, func(r *mpi.Rank) {
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
	if a, b := run(false), run(true); a != b {
		t.Errorf("capped run diverges under floor pacing:\n got:\n%s\nwant:\n%s", b, a)
	}
}

// TestInterruptAborts: an engine interrupt (the hook watchdogs and contexts
// ride) with ranks still pending aborts the whole cluster with a structured
// *InterruptError naming the node.
func TestInterruptAborts(t *testing.T) {
	c := buildRingJob(t, Config{
		Nodes: 2, Seed: 3,
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
	run := func(floorPacing bool) sim.Time {
		c, err := New(Config{
			Nodes: 2, Seed: 11, FloorPacing: floorPacing,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		c.NewWorld([]int{0, 0, 1, 1})
		for i := 0; i < 4; i++ {
			i := i
			c.World.Spawn(i, sched.TaskSpec{}, func(r *mpi.Rank) {
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
	if a, b := run(false), run(true); a != b {
		t.Errorf("collective run diverges under floor pacing: %v vs %v", a, b)
	}
}

// TestLookaheadFloorPacingEquivalence is the pacing half of the PDES
// determinism claim: the lookahead horizon only moves window boundaries,
// so a run under it is byte-identical to the same run under the
// clock+floor cadence, on every topology.
func TestLookaheadFloorPacingEquivalence(t *testing.T) {
	for _, topo := range []string{"flat", "ring", "star"} {
		t.Run(topo, func(t *testing.T) {
			run := func(floorPacing bool) string {
				c := buildRingJob(t, Config{
					Nodes: 4, Topology: topo, Seed: 42,
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
			if got, want := run(false), run(true); got != want {
				t.Errorf("lookahead run diverges from floor pacing:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestIdlePeerDoesNotBlockEIT pins the point of the lookahead horizon: a
// peer with no pending sends must not hold its neighbours to the floor
// cadence. Node 1 computes one long stretch and exits without ever
// sending, while node 0's pair exchanges locally; under floor pacing the
// run costs ~span/floor windows, under lookahead the idle stretch must
// collapse to a handful.
func TestIdlePeerDoesNotBlockEIT(t *testing.T) {
	run := func(floorPacing bool) (*Cluster, sim.Time) {
		c, err := New(Config{
			Nodes: 2, Seed: 9,
			FloorPacing: floorPacing,
			MPI:         mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld([]int{0, 0, 1})
		for i := 0; i < 2; i++ {
			i := i
			c.World.Spawn(i, sched.TaskSpec{}, func(r *mpi.Rank) {
				for it := 0; it < 25; it++ {
					r.Compute(2 * sim.Millisecond)
					r.Send(1-i, it, 512)
					r.Recv(1-i, it)
				}
			})
		}
		c.World.Spawn(2, sched.TaskSpec{}, func(r *mpi.Rank) {
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

// TestPendingSendKeepsNodeAdvancing pins the first guard of the calendar
// keys: a node whose cross-node send is deferred behind a compute keys at
// its clock, so it keeps running windows even though none of them is due.
// Rank 0 queues 5ms of work ahead of its send (after a first blocking
// compute, so every rank is placed before the send is issued), and node 1
// has nothing to do until the message lands; the run must complete with
// several windows of node 0 opened while the send was pending.
func TestPendingSendKeepsNodeAdvancing(t *testing.T) {
	c, err := New(Config{
		Nodes: 2, Seed: 5,
		MPI: mpi.DefaultOptions(), NewNode: newTestNode,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.NewWorld([]int{0, 1})
	c.World.Spawn(0, sched.TaskSpec{}, func(r *mpi.Rank) {
		r.Compute(10 * sim.Microsecond)
		r.Env().DeferCompute(5 * sim.Millisecond)
		r.Send(1, 0, 64)
		r.Recv(1, 1)
	})
	c.World.Spawn(1, sched.TaskSpec{}, func(r *mpi.Rank) {
		r.Send(0, 1, 64)
		r.Recv(0, 0)
	})
	var forced int
	c.onWindow = func(w windowStat) {
		if w.node == 0 && w.pendingSends {
			forced++
		}
	}
	end, err := c.Run(0)
	c.Shutdown()
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if c.Capped(0) || c.Capped(1) {
		t.Fatalf("a node capped at the horizon")
	}
	if end < 5*sim.Millisecond {
		t.Errorf("end = %v, before the deferred compute finished", end)
	}
	if forced < 2 {
		t.Errorf("%d windows ran with a send pending; the compute did not straddle a window boundary", forced)
	}
}

// runBTMZ runs a 4-node, 2-iteration BT-MZ job and returns the cluster.
func runBTMZ(t *testing.T, onWindow func(windowStat)) *Cluster {
	t.Helper()
	return runBTMZOn(t, 4, onWindow)
}

// runBTMZOn is runBTMZ on a cluster of the given node count.
func runBTMZOn(t *testing.T, nodes int, onWindow func(windowStat)) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes: nodes, Seed: 42,
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

// TestNodeZeroDrawsTheRunStreams: node 0's engine runs on the run seed
// itself and every rank's jitter is split, in rank order, from its node's
// engine — shared per node when asked — so a 1-node cluster draws exactly
// the streams of a lone machine seeded with the run seed.
func TestNodeZeroDrawsTheRunStreams(t *testing.T) {
	if NodeSeed(42, nodeEngineSalt, 0) != 42 || NodeSeed(42, nodeEngineSalt, 1) == 42 {
		t.Fatal("NodeSeed: node 0 must take the seed itself, node 1 a derived one")
	}
	for _, shared := range []bool{false, true} {
		c, err := New(Config{Nodes: 2, Seed: 42, MPI: mpi.DefaultOptions(), NewNode: newTestNode})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld([]int{0, 0, 1, 1})
		got := c.RankRNGs(4, shared)
		// The reference: fresh nodes on the per-node seeds, split the same way.
		ref := []*sim.Engine{sim.NewEngine(42), sim.NewEngine(NodeSeed(42, nodeEngineSalt, 1))}
		for i, e := range ref {
			newTestNode(i, e)
		}
		for i, node := range []int{0, 0, 1, 1} {
			if shared && i%2 == 1 {
				if got[i] != got[i-1] {
					t.Errorf("shared: rank %d does not share its node's stream", i)
				}
				continue
			}
			if a, b := got[i].Uint64(), ref[node].RNG().Split().Uint64(); a != b {
				t.Errorf("shared=%v: rank %d stream is not its node engine's split", shared, i)
			}
		}
		c.Shutdown()
	}
}

// TestBTMZWindowCount pins the window count of a fixed run exactly. The
// calendar's visit order — and so every window boundary — is a pure
// function of the simulation, so any change to the pacing shows up here as
// a different count, even one that leaves the timeline intact. The count
// describes the executor, not the simulation: the sequential calendar runs
// 459 windows where the sharded EOT/EIT executor it replaced ran 463.
func TestBTMZWindowCount(t *testing.T) {
	const want = 459
	if got := runBTMZ(t, nil).Windows(); got != want {
		t.Errorf("Windows() = %d, want %d", got, want)
	}
}

// TestWindowsAreDue: under the lookahead bound a window always reaches the
// head's key, so every executed window fires or injects at least one event
// — except the horizon-capped ones and those a send pending behind a
// compute keys at the clock. Windows() counts exactly the executed windows.
// Each job runs on 2 and on 4 nodes, so the calendar holds a pair and a
// wider set of keys.
func TestWindowsAreDue(t *testing.T) {
	check := func(t *testing.T, run func(onWindow func(windowStat)) *Cluster) {
		var seen, empty int64
		c := run(func(w windowStat) {
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
	for _, nodes := range []int{2, 4} {
		t.Run(fmt.Sprintf("btmz/nodes%d", nodes), func(t *testing.T) {
			check(t, func(onWindow func(windowStat)) *Cluster {
				return runBTMZOn(t, nodes, onWindow)
			})
		})
		for _, topo := range []string{"flat", "star"} {
			t.Run(fmt.Sprintf("ring-%s/nodes%d", topo, nodes), func(t *testing.T) {
				check(t, func(onWindow func(windowStat)) *Cluster {
					c := buildRingJob(t, Config{
						Nodes: nodes, Topology: topo, Seed: 42,
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

// TestDeadlockedJobCaps pins the second guard of the calendar: a window
// reaching the run horizon always runs, even with nothing due. A job whose
// rank waits for a message nobody sends drains its engine, so only that
// final window can cap the node; skipping it would stall.
func TestDeadlockedJobCaps(t *testing.T) {
	for _, floorPacing := range []bool{false, true} {
		c, err := New(Config{
			Nodes: 2, Seed: 5, FloorPacing: floorPacing,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.NewWorld([]int{0, 1})
		c.World.Spawn(0, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(100 * sim.Microsecond)
			r.Recv(1, 0)
		})
		c.World.Spawn(1, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(200 * sim.Microsecond)
		})
		end, err := c.Run(50 * sim.Millisecond)
		c.Shutdown()
		if err != nil {
			t.Fatalf("floor=%v: run failed: %v", floorPacing, err)
		}
		if !c.Capped(0) || c.Capped(1) || end != 50*sim.Millisecond {
			t.Errorf("floor=%v: end=%v capped=%v/%v, want node 0 alone capped at 50ms",
				floorPacing, end, c.Capped(0), c.Capped(1))
		}
	}
}

// TestSendBeforePeerSpawn: a rank body runs eagerly at spawn, up to its
// first blocking call, so rank 0 here sends to rank 1 before rank 1 is
// spawned. NewWorld has already placed rank 1 on node 1, so the send is
// priced and routed as inter-node traffic — it must not be delivered as a
// node-local message on the sender's engine. A 1 MB message pays the
// interconnect's per-byte cost on top of its latency.
func TestSendBeforePeerSpawn(t *testing.T) {
	opts := mpi.DefaultOptions()
	for _, size := range []int64{0, 1 << 20} {
		for _, floorPacing := range []bool{false, true} {
			c, err := New(Config{
				Nodes: 2, FloorPacing: floorPacing, Seed: 3,
				MPI: opts, NewNode: newTestNode,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.NewWorld([]int{0, 1})
			c.World.Spawn(0, sched.TaskSpec{}, func(r *mpi.Rank) {
				r.Send(1, 0, size)
				r.Recv(1, 1)
			})
			var arrived sim.Time
			var got int64 = -1
			c.World.Spawn(1, sched.TaskSpec{}, func(r *mpi.Rank) {
				got = r.Recv(0, 0)
				arrived = r.Now()
				r.Send(0, 1, 0)
				r.Compute(sim.Millisecond)
			})
			_, err = c.Run(0)
			c.Shutdown()
			if err != nil {
				t.Fatalf("size=%d floor=%v: run failed: %v", size, floorPacing, err)
			}
			if c.Capped(0) || c.Capped(1) {
				t.Fatalf("size=%d floor=%v: a node capped at the horizon; the message was lost", size, floorPacing)
			}
			if got != size {
				t.Errorf("size=%d floor=%v: received %d bytes", size, floorPacing, got)
			}
			if lat := opts.RemoteLatency + sim.Time(float64(size)*opts.RemoteByteCost); arrived < lat {
				t.Errorf("size=%d floor=%v: message arrived at %v, before the %v inter-node transfer",
					size, floorPacing, arrived, lat)
			}
			if _, _, remote := c.World.NodeMsgStats(0); remote != 1 {
				t.Errorf("size=%d floor=%v: node 0 sent %d remote messages, want 1", size, floorPacing, remote)
			}
		}
	}
}

// TestClusterConstruction: every node gets its own engine and its own
// kernel from Config.NewNode, which sees its node index.
func TestClusterConstruction(t *testing.T) {
	var seen []int
	c, err := New(Config{
		Nodes: 3, Seed: 1, MPI: mpi.DefaultOptions(),
		NewNode: func(node int, eng *sim.Engine) *sched.Kernel {
			seen = append(seen, node)
			return newTestNode(node, eng)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if c.Nodes() != 3 || len(c.Engines) != 3 || fmt.Sprint(seen) != "[0 1 2]" {
		t.Fatalf("cluster shape: %d nodes, %d engines, NewNode calls %v", c.Nodes(), len(c.Engines), seen)
	}
	for i, k := range c.Kernels {
		if k.Engine != c.Engines[i] {
			t.Fatalf("node %d kernel does not run node %d's engine", i, i)
		}
		for j := 0; j < i; j++ {
			if c.Engines[j] == c.Engines[i] {
				t.Fatalf("nodes %d and %d share an engine", j, i)
			}
		}
	}
}

// TestSpawnRankValidation: a rank can only be placed on a node of the
// cluster; NewWorld rejects any other placement before a rank exists.
func TestSpawnRankValidation(t *testing.T) {
	for _, node := range []int{-1, 2, 5} {
		func() {
			c, err := New(Config{Nodes: 2, Seed: 1, MPI: mpi.DefaultOptions(), NewNode: newTestNode})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			defer func() {
				v := recover()
				if v == nil || !strings.Contains(fmt.Sprint(v), "out of range") {
					t.Errorf("node %d: NewWorld panic = %v, want an out-of-range placement", node, v)
				}
			}()
			c.NewWorld([]int{0, node})
		}()
	}
}

// TestRanklessNodesFinishAtOnce: a node with no live rank — none placed
// on it, or a body that returns at spawn — is finished before its engine
// runs, at instant 0 and not capped, instead of simulating OS noise until
// the horizon.
func TestRanklessNodesFinishAtOnce(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []int
		body  func(i int) func(*mpi.Rank)
		want  sim.Time // upper bound on the run's end
	}{
		{
			name:  "empty node",
			nodes: []int{0, 0},
			body: func(i int) func(*mpi.Rank) {
				return func(r *mpi.Rank) {
					r.Compute(sim.Millisecond)
					if i == 0 {
						r.Send(1, 0, 64)
					} else {
						r.Recv(0, 0)
					}
				}
			},
			want: 10 * sim.Millisecond,
		},
		{
			name:  "body returns at spawn",
			nodes: []int{0, 1},
			body: func(i int) func(*mpi.Rank) {
				return func(r *mpi.Rank) {
					if i == 0 {
						r.Compute(sim.Millisecond)
					}
				}
			},
			want: 10 * sim.Millisecond,
		},
	} {
		for _, pacing := range []string{"lookahead", "floor"} {
			t.Run(tc.name+"/"+pacing, func(t *testing.T) {
				c, err := New(Config{
					Nodes: 2, Seed: 5, FloorPacing: pacing == "floor",
					MPI: mpi.DefaultOptions(), NewNode: newTestNode,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Shutdown()
				c.NewWorld(tc.nodes)
				for i := range tc.nodes {
					c.World.Spawn(i, sched.TaskSpec{}, tc.body(i))
				}
				end, err := c.Run(10 * sim.Second)
				if err != nil {
					t.Fatalf("run failed: %v", err)
				}
				if end >= tc.want {
					t.Errorf("end = %v, want < %v", end, tc.want)
				}
				if c.Capped(1) || c.NodeEnd(1) != 0 {
					t.Errorf("node 1: end=%v capped=%v, want finished at 0", c.NodeEnd(1), c.Capped(1))
				}
			})
		}
	}
}

// TestLastSendDelivered: a rank whose body ends with a cross-node send is
// the last to exit on its node, so its exit stops the node's engine in the
// very instant the send's route step is due. The node must not finish
// until that send has left: otherwise the message is lost and its receiver
// blocks until the horizon.
func TestLastSendDelivered(t *testing.T) {
	for _, floorPacing := range []bool{false, true} {
		c, err := New(Config{
			Nodes: 2, Seed: 5, FloorPacing: floorPacing,
			MPI: mpi.DefaultOptions(), NewNode: newTestNode,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := c.NewWorld([]int{0, 1})
		w.Spawn(0, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Compute(sim.Millisecond)
			r.Send(1, 0, 0)
		})
		w.Spawn(1, sched.TaskSpec{}, func(r *mpi.Rank) {
			r.Recv(0, 0)
		})
		end, err := c.Run(10 * sim.Second)
		c.Shutdown()
		if err != nil {
			t.Fatalf("floor=%v: run failed: %v", floorPacing, err)
		}
		if c.Capped(1) || end >= 10*sim.Millisecond {
			t.Errorf("floor=%v: end=%v, node 1 capped=%v; the last send was lost",
				floorPacing, end, c.Capped(1))
		}
	}
}
