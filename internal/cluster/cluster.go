// Package cluster simulates a whole machine room: N node-local kernels —
// each the single-node engine of internal/sim + internal/sched — coupled
// by an inter-node MPI latency model and advanced in parallel by a
// conservative (null-message) parallel discrete-event simulation.
//
// The correctness argument is the classic Chandy–Misra–Bryant bound. Every
// inter-node message costs at least the latency floor L (the interconnect's
// RemoteLatency plus the smallest topology add-on over cross-node rank
// pairs). A node publishes its clock c only after every event at ≤ c has
// fired, so any message it has not yet handed to the transport fires at
// ≥ c+1 and arrives at ≥ c+1+L. Node i may therefore simulate up to
//
//	h_i = min_{j≠i} c_j + L
//
// without ever receiving a message in its past. L ≤ 0 would make that
// horizon vacuous — a zero-lookahead deadlock — and is rejected with a
// structured *LookaheadError before the run starts.
//
// The clock bound is only the fallback. The default pacing is Nicol-style
// EOT/EIT lookahead, organised around CUSTODY: at every instant, each
// not-yet-delivered future event chain is covered by exactly the node
// currently holding it. Node i publishes S_i, a lower bound over its
// whole custody set — pending engine events (Engine.NextEventAt),
// drained-but-uninjected arrivals, unflushed deferred sends, and pushed-
// but-undrained outbound messages capped at their fire instants. Every
// chain adds at least the pair latency per hop, so with R = the min-plus
// path closure of the per-pair latency floors (shortest nonempty path,
// computed once in Finalize), node i's earliest input time is
//
//	EIT_i = min_j (S_j + R_{j→i})
//
// — its earliest output toward k being EOT_{i→k} = S_i + L_{i→k}, folded
// into the closure so a publish is one atomic store and an EIT read is N
// loads. The node advances in ONE window to EIT_i − 1 (same strictness
// tick as the floor bound), not in floor-sized steps: idle and
// compute-only stretches collapse into single windows (WindowsElided
// counts the collapse), and the per-pair closure keeps ring/star
// topologies from serialising on the global minimum. Custody of an
// in-flight message hands off receiver-first (drainInto lowers the
// receiver's bound before the sender may raise past its fire cap), and
// EIT scans detect mid-scan handoffs through an epoch counter — the pair
// of rules that keeps the horizon sound without acknowledgements or
// null-message relaxation (publishing min(origin, EIT)+L instead would
// creep by one floor per sweep: floor cadence in disguise).
// Config.FloorPacing restores the clock+floor cadence; the simulation is
// byte-identical either way.
//
// Under EOT/EIT pacing windows are also demand-driven: a node runs a
// window only when it is DUE — when its next pending event or earliest
// staged arrival falls at or before EIT_i − 1, so the window fires or
// injects at least one event. Every event anywhere raises the peers' EITs
// a little; a node that merely could advance its clock does not, and a
// not-due visit costs the EIT scan plus O(1): drain (skipped outright
// while the node's inbound count is zero) and republish the bound (the
// out-queue scan skipped while no fire cap is armed). Two visits always run: a node with
// a cross-node send deferred behind a compute (its bound is its clock,
// which only a window advances) and a window reaching the run horizon.
// If pacing ever leaves no shard able to advance, the run aborts with a
// *StallError dumping every node's synchronisation state instead of
// hanging.
//
// Determinism is the headline property: the event sequence of every node —
// and therefore timelines, traces and fault logs — is byte-identical at any
// shard count. Cross-node deliveries are injected by a window-invariant
// protocol (see stepNode) so the lookahead window boundaries, which do
// depend on shard scheduling, are invisible to the simulation.
package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hpcsched/internal/batch"
	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// nodeEngineSalt separates the per-node engine RNG streams from every other
// derived stream in the tree (batch replicas, storms, fault compiles).
const nodeEngineSalt = 0xc105_7e20_0000_0000

// Config describes a sharded cluster simulation.
type Config struct {
	// Nodes is the number of simulated nodes (≥ 1).
	Nodes int
	// Shards is the number of goroutines advancing node engines; ≤ 0 means
	// GOMAXPROCS. Nodes are dealt round-robin over shards, and any shard
	// count yields the identical simulation.
	Shards int
	// Topology shapes the inter-node latency add-ons: "flat" (uniform
	// interconnect, the default), "ring" (latency grows with hop distance)
	// or "star" (leaf↔leaf traffic pays one extra hub hop).
	Topology string
	// Seed drives all randomness; node i's engine seeds from
	// DeriveSeed(Seed, nodeEngineSalt+i).
	Seed uint64
	// MPI parameterises the transport. RemoteLatency (plus the smallest
	// topology add-on) is the lookahead floor and must be positive.
	MPI mpi.Options
	// NewNode builds node i's kernel on the given engine — the caller's
	// hook for chips, scheduler options, HPC classes, noise and tracers.
	NewNode func(node int, eng *sim.Engine) *sched.Kernel
	// OnNodeStop, when non-nil, is consulted when a node's engine is
	// stopped by an interrupt (a watchdog or context hook installed by the
	// caller) with ranks still pending: the returned error aborts the run.
	// Nil treats any such stop as a generic interrupt error.
	OnNodeStop func(node int) error
	// FloorPacing, when true, disables the EOT/EIT lookahead and paces
	// windows with the clock+floor protocol alone (every window ≈ one
	// latency floor). The simulation is byte-identical either way — the
	// knob exists for the equivalence suite that proves it
	// (TestLookaheadFloorEquivalence) and for window-cadence comparisons.
	FloorPacing bool
}

// LookaheadError reports a lookahead floor too small to make progress: the
// conservative horizon is min(other clocks)+floor−1 (strict — a message can
// arrive at exactly clock+floor, so the window must stop one tick short),
// and with floor < 2ns that horizon never advances past the slowest clock:
// the parallel simulation would deadlock (or livelock in zero-sized steps).
// It is returned by Finalize before any event runs.
type LookaheadError struct {
	Floor    sim.Time
	Topology string
}

func (e *LookaheadError) Error() string {
	return fmt.Sprintf("cluster: lookahead floor %v on %q topology is too small; "+
		"inter-node latency (mpi.Options.RemoteLatency plus topology add-ons) must be ≥ 2ns",
		e.Floor, e.Topology)
}

// ShardsError reports a shard count exceeding the node count. The library
// itself silently clamps (a node is the unit of parallelism, so extra
// shards could only idle), but user-facing entry points reject the request
// instead of quietly over-provisioning workers — same contract as
// *LookaheadError: a structured error before the run starts.
type ShardsError struct {
	Shards int
	Nodes  int
}

func (e *ShardsError) Error() string {
	return fmt.Sprintf("cluster: %d shards requested for %d node(s); "+
		"a node is the unit of parallelism, so -shards must be ≤ nodes (or ≤ 0 for GOMAXPROCS)",
		e.Shards, e.Nodes)
}

// ValidateShards rejects an explicit shard request larger than the node
// count with a *ShardsError. Non-positive shards (meaning GOMAXPROCS,
// clamped to nodes) are always valid; nodes ≤ 0 normalises to 1 the same
// way Config.Nodes does.
func ValidateShards(shards, nodes int) error {
	if nodes <= 0 {
		nodes = 1
	}
	if shards > nodes {
		return &ShardsError{Shards: shards, Nodes: nodes}
	}
	return nil
}

// InterruptError reports that a node's engine was stopped (watchdog,
// context cancellation) before its ranks completed.
type InterruptError struct {
	Node  int
	Cause error
}

func (e *InterruptError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("cluster: node %d interrupted: %v", e.Node, e.Cause)
	}
	return fmt.Sprintf("cluster: node %d interrupted with ranks pending", e.Node)
}

func (e *InterruptError) Unwrap() error { return e.Cause }

// StallError reports a run in which no shard could make progress: every
// live shard parked with no peer left to wake it. Conservative pacing
// cannot stall on a correct protocol — a workload deadlock drains every
// engine and caps at the horizon instead — so a stall is a pacing bug, and
// Nodes holds each node's synchronisation state at the moment it was
// detected.
type StallError struct {
	Nodes []NodeState
}

// NodeState is one node's synchronisation state in a *StallError.
type NodeState struct {
	Node int
	Done bool
	// Now is the engine clock, NextEvent its earliest pending event.
	Now, NextEvent sim.Time
	// EOT is the node's published coverage bound, EIT its earliest input
	// time over every peer's bound.
	EOT, EIT sim.Time
	// PendingSends counts cross-node sends deferred behind a compute,
	// ArmedCaps the out-queues with a live fire cap, Inbound the messages
	// pushed toward the node and not yet drained.
	PendingSends int64
	ArmedCaps    int
	Inbound      int64
}

func (e *StallError) Error() string {
	var b strings.Builder
	b.WriteString("cluster: stalled — no shard can advance (a pacing protocol bug); node states:\n")
	fmt.Fprintf(&b, "%6s %5s %16s %16s %16s %16s %8s %6s %8s\n",
		"node", "done", "now", "next_event", "eot", "eit", "pending", "armed", "inbound")
	for _, n := range e.Nodes {
		fmt.Fprintf(&b, "%6d %5t %16s %16s %16s %16s %8d %6d %8d\n",
			n.Node, n.Done, stallTime(n.Now), stallTime(n.NextEvent),
			stallTime(n.EOT), stallTime(n.EIT), n.PendingSends, n.ArmedCaps, n.Inbound)
	}
	return strings.TrimRight(b.String(), "\n")
}

// stallTime renders an instant for the stall dump, MaxTime as "never".
func stallTime(t sim.Time) string {
	if t == sim.MaxTime {
		return "never"
	}
	return t.String()
}

// xmsg is one cross-shard message in flight: the arrival instant is stamped
// by the sender, and (arrival, srcNode, seq) is a total order — seq is the
// sender's running counter for the directed node pair, so two messages can
// only tie on (arrival, srcNode) if they are the same message.
type xmsg struct {
	arrival sim.Time
	srcNode int
	seq     uint64
	dst     *mpi.Rank
	src     int
	tag     int
	size    int64
}

// pairQueue carries messages for one directed node pair. Pushes never
// block: a full channel spills to the mutexed overflow slice, so a sender
// mid-window can never deadlock against a receiver mid-window. The drain
// sorts everything it collects, restoring the total order the ch/overflow
// split may scramble.
type pairQueue struct {
	ch       chan xmsg
	mu       sync.Mutex
	overflow []xmsg
	seq      uint64 // owner-shard only: per-pair send counter

	// n counts queued-but-undrained messages; the sender increments it
	// before enqueueing. A zero read lets drainInto skip the channel poll
	// and overflow mutex entirely — with N nodes the drain runs N-1 times
	// per lookahead window, and most pairs are silent in most windows. A
	// racing non-zero-but-not-yet-enqueued message is safe to miss: its
	// arrival is stamped beyond the reader's current horizon (see
	// drainInto).
	n atomic.Int64

	// capW is the fire instant of the oldest undrained message in this
	// queue, MaxTime when the sender last observed it empty. Sender-owned
	// (armed by RouteMessage on the first push into an observed-empty
	// queue — fires are monotone per sender, so first-armed is oldest —
	// and cleared at publish once n reads 0); the receiver never touches
	// it. It caps the sender's published origin bound while a message is
	// in flight: until the receiver takes custody, the chain the message
	// carries is covered only by the sender's slot, and any continuation
	// leaves the receiver no earlier than capW plus the pair latency —
	// which the reach closure already folds in.
	capW sim.Time
}

const pairQueueCap = 1024

// paddedCount is an atomic counter alone on its cache line, so senders on
// different shards bumping neighbouring nodes' counts do not false-share.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// inject is one pooled target-side delivery: a pre-bound engine callback
// per object, so injecting a cross-node message allocates nothing in steady
// state (the per-event alloc budget is ≤ 0.01 and a 4-node exchange-heavy
// run injects tens of thousands of deliveries).
type inject struct {
	dst  *mpi.Rank
	src  int
	tag  int
	size int64
	next *inject
	fire func()
}

// injectPool is a per-node free list; only the node's owner shard touches it.
type injectPool struct {
	free *inject
}

func (p *injectPool) draw(m xmsg) *inject {
	in := p.free
	if in == nil {
		in = &inject{}
		in.fire = func() {
			d, src, tag, size := in.dst, in.src, in.tag, in.size
			in.dst = nil
			in.next = p.free
			p.free = in
			d.Deliver(src, tag, size)
		}
	} else {
		p.free = in.next
		in.next = nil
	}
	in.dst = m.dst
	in.src = m.src
	in.tag = m.tag
	in.size = m.size
	return in
}

// Cluster is a set of simulated nodes advanced in parallel.
type Cluster struct {
	Engines []*sim.Engine
	Kernels []*sched.Kernel
	World   *mpi.World

	cfg     Config
	shards  int
	horizon sim.Time
	floor   sim.Time

	queues  [][]*pairQueue // [srcNode][dstNode], nil on the diagonal
	clocks  []atomic.Int64 // published per-node clocks (MaxTime once done)
	pools   []injectPool
	staging [][]xmsg // per-node drained-but-not-yet-due messages

	// eot[i] is node i's published coverage bound S_i: a lower bound on
	// the earliest future virtual instant of any event chain currently in
	// i's custody — its engine's pending events, its drained-but-
	// uninjected staging, its unflushed deferred sends, and its pushed-
	// but-undrained outbound messages (capped at their fire instants, see
	// pairQueue.capW). Written only by i's owner shard; everyone reads.
	// i's earliest output toward k is eot[i] + nodeLat[i][k]; k's earliest
	// input folds the whole forwarding closure: min_j(eot[j] +
	// reach[j][k]). The cluster invariant is continuous coverage: at every
	// instant, every not-yet-injected future event is covered by the slot
	// of the node holding custody of its chain. Custody of an in-flight
	// message hands off sender→receiver through drainInto, which LOWERS
	// the receiver's slot to the staged arrival (bumping eotEpoch) before
	// decrementing the queue count the sender's next publish reads — so
	// the sender only raises past the fire cap once the receiver's slot
	// already covers the chain.
	eot []atomic.Int64
	// eotEpoch is bumped on every custody LOWER of an eot slot. eitFor
	// re-reads it around its scan: coverage can hop between slots only at
	// a lower/raise pair, so a scan that straddles no lower saw every
	// chain covered by at least one of the values it read.
	eotEpoch atomic.Uint64
	// nodeLat[i][k] is the smallest transport latency from node i to node
	// k over all placed rank pairs (MaxTime when no such pair exists):
	// RemoteLatency plus the topology add-on, computed once in Finalize.
	// Fault-injected mpidelay windows only ever add latency on top.
	nodeLat [][]sim.Time
	// reach[j][i] is the min-plus path closure of nodeLat — the cheapest
	// nonempty forwarding path j→…→i (reach[i][i] is the cheapest round
	// trip). A message chain originating at j cannot reach i faster, so
	// EIT_i = min_j (eot[j] + reach[j][i]) bounds every possible arrival,
	// including multi-hop forwards the senders' own probes cannot see.
	// Static is conservative: a finished node only removes paths.
	reach [][]sim.Time
	// windows/elided count executed lookahead windows per node — under
	// EOT/EIT pacing only due windows run (see stepNode) — and the
	// estimated floor-cadence windows the EOT/EIT horizon collapsed
	// (owner shard only; read after Run). Shard interleaving perturbs the
	// counts, so they are reported as diagnostics (ClusterInfo, BENCH)
	// and must never feed a determinism-pinned artifact.
	windows []int64
	elided  []int64

	// inbound[i] counts messages pushed toward node i and not yet drained
	// (the sum of i's inbound pair counts). RouteMessage increments it right
	// after the pair count and drainInto decrements it right after; a zero
	// read lets a drain return without polling the N−1 pair queues — the
	// same race argument as pairQueue.n. Each counter sits on its own cache
	// line: every sender in the cluster writes it.
	inbound []paddedCount
	// armed[i] counts node i's out-queues with a live fire cap (capW set).
	// Owner shard only; at zero, publishEOT and flushEOT skip the out-queue
	// scan, so a node with nothing in flight republishes in O(1).
	armed []int

	// onWindow, when non-nil, observes every executed window (tests only).
	onWindow func(windowStat)

	pending  []int  // per-node unexited spawned ranks (owner shard only)
	done     []bool // owner shard only
	ends     []sim.Time
	capped   []bool // node hit the horizon with ranks pending
	rankNode []int

	watched []map[*sched.Task]bool

	abort    atomic.Bool
	abortMu  sync.Mutex
	abortErr error

	// progress is broadcast whenever any node runs a window, finishes,
	// takes custody of in-flight messages, raises its bound, or the run
	// aborts. Shards whose nodes cannot advance park here instead of
	// spinning: a node's horizon moves only when a peer's bound does, so
	// every event that could unblock a shard bumps the generation. The generation and the parked-waiter count are atomics so
	// the hot path (bump with no one parked — the common case, once per
	// lookahead window) costs two uncontended atomic ops, not a mutex and a
	// broadcast; parked is only modified under progressMu.
	progressMu  sync.Mutex
	progress    sync.Cond
	progressGen atomic.Uint64
	parked      atomic.Int32
	// stallParked counts the shards parked at progress generation
	// stallGen, exited the shards whose nodes have all finished (all three
	// under progressMu). When every live shard is parked at the current
	// generation, no shard can ever bump it again: the run is stalled, and
	// the last shard to park or exit aborts it with a *StallError instead
	// of hanging.
	stallGen    uint64
	stallParked int
	exited      int

	finalized bool
}

// New builds the node engines and kernels. Ranks are placed with NewWorld
// and launched with SpawnRank; call Finalize after the last spawn, then
// Run.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.NewNode == nil {
		return nil, fmt.Errorf("cluster: Config.NewNode is required")
	}
	switch cfg.Topology {
	case "", "flat", "ring", "star":
	default:
		return nil, fmt.Errorf("cluster: unknown topology %q (flat|ring|star)", cfg.Topology)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > cfg.Nodes {
		shards = cfg.Nodes
	}
	c := &Cluster{
		cfg:     cfg,
		shards:  shards,
		queues:  make([][]*pairQueue, cfg.Nodes),
		clocks:  make([]atomic.Int64, cfg.Nodes),
		pools:   make([]injectPool, cfg.Nodes),
		staging: make([][]xmsg, cfg.Nodes),
		pending: make([]int, cfg.Nodes),
		done:    make([]bool, cfg.Nodes),
		ends:    make([]sim.Time, cfg.Nodes),
		capped:  make([]bool, cfg.Nodes),
		watched: make([]map[*sched.Task]bool, cfg.Nodes),
		eot:     make([]atomic.Int64, cfg.Nodes),
		windows: make([]int64, cfg.Nodes),
		elided:  make([]int64, cfg.Nodes),
		inbound: make([]paddedCount, cfg.Nodes),
		armed:   make([]int, cfg.Nodes),
	}
	c.progress.L = &c.progressMu
	for i := 0; i < cfg.Nodes; i++ {
		eng := sim.NewEngine(batch.DeriveSeed(cfg.Seed, nodeEngineSalt+uint64(i)))
		c.Engines = append(c.Engines, eng)
		c.Kernels = append(c.Kernels, cfg.NewNode(i, eng))
		c.queues[i] = make([]*pairQueue, cfg.Nodes)
		for j := 0; j < cfg.Nodes; j++ {
			if j != i {
				c.queues[i][j] = &pairQueue{ch: make(chan xmsg, pairQueueCap), capW: sim.MaxTime}
			}
		}
	}
	return c, nil
}

// Shards returns the effective shard count.
func (c *Cluster) Shards() int { return c.shards }

// Floor returns the lookahead floor (valid after Finalize).
func (c *Cluster) Floor() sim.Time { return c.floor }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.Kernels) }

// NewWorld creates the MPI world spanning the cluster, on the Config.MPI
// transport (the same options Finalize derives the lookahead floor from),
// with the cluster installed as the cross-shard router. Rank i is placed on
// node rankNodes[i] here, before any rank is spawned, so a body that sends
// eagerly at spawn already sees every peer's real node.
func (c *Cluster) NewWorld(rankNodes []int) *mpi.World {
	for i, node := range rankNodes {
		if node < 0 || node >= len(c.Kernels) {
			panic(fmt.Sprintf("cluster: rank %d placed on node %d, out of range", i, node))
		}
	}
	c.rankNode = append([]int(nil), rankNodes...)
	c.World = mpi.NewRoutedWorld(c.Kernels, c.rankNode, c.cfg.MPI, c)
	return c.World
}

// SpawnRank launches rank i on the node NewWorld placed it on and registers
// it for completion tracking: a node is finished when its last spawned rank
// exits, which stops the node's engine mid-window.
func (c *Cluster) SpawnRank(i int, spec sched.TaskSpec, body func(*mpi.Rank)) *sched.Task {
	if c.World == nil {
		panic("cluster: SpawnRank before NewWorld")
	}
	node := c.rankNode[i]
	task := c.World.SpawnAt(i, c.Kernels[node], node, spec, body)
	c.pending[node]++
	if c.watched[node] == nil {
		c.watched[node] = make(map[*sched.Task]bool)
		k := c.Kernels[node]
		prev := k.OnTaskExit
		k.OnTaskExit = func(t *sched.Task) {
			if prev != nil {
				prev(t)
			}
			if c.watched[node][t] {
				delete(c.watched[node], t)
				c.pending[node]--
				if c.pending[node] == 0 {
					k.Engine.Stop()
				}
			}
		}
	}
	c.watched[node][task] = true
	return task
}

// clusterRankSalt separates the per-rank workload RNG streams.
const clusterRankSalt = 0x2a8c_0000_0000_0000

// RankRNGs returns n workload jitter streams, rank i's stream derived from
// DeriveSeed(Seed, clusterRankSalt+i). Node engines run on different
// shards, so ranks never share a stream here (shared is ignored), and each
// stream is a function of the rank alone, so any shard interleaving draws
// the identical workload.
func (c *Cluster) RankRNGs(n int, shared bool) []*sim.RNG {
	rngs := make([]*sim.RNG, n)
	for i := range rngs {
		rngs[i] = sim.NewRNG(batch.DeriveSeed(c.cfg.Seed, clusterRankSalt+uint64(i)))
	}
	return rngs
}

// RankNode returns the node rank i was placed on.
func (c *Cluster) RankNode(i int) int { return c.rankNode[i] }

// Finalize applies the topology's per-rank-pair latency add-ons (placement
// must be complete) and computes the lookahead floor, rejecting a
// non-positive floor with *LookaheadError. It must be called once, after
// the last SpawnRank and before Run.
func (c *Cluster) Finalize() error {
	if c.World == nil {
		return fmt.Errorf("cluster: Finalize before NewWorld")
	}
	c.finalized = true
	nodes := len(c.Kernels)
	c.nodeLat = make([][]sim.Time, nodes)
	for i := range c.nodeLat {
		row := make([]sim.Time, nodes)
		for k := range row {
			row[k] = sim.MaxTime // no rank pair: this direction can't carry traffic
		}
		c.nodeLat[i] = row
	}
	if nodes == 1 {
		c.floor = sim.MaxTime // no cross-shard traffic; horizon-capped only
		c.closeReach()
		return nil
	}
	floor := sim.MaxTime
	cross := false
	size := c.World.Size()
	for s := 0; s < size; s++ {
		for d := 0; d < size; d++ {
			if s == d || c.rankNode[s] == c.rankNode[d] {
				continue
			}
			cross = true
			extra := topologyExtra(c.cfg.Topology, c.rankNode[s], c.rankNode[d],
				len(c.Kernels), c.cfg.MPI.RemoteLatency)
			if extra > 0 {
				c.World.SetPairExtraDelay(s, d, extra)
			}
			lat := c.cfg.MPI.RemoteLatency + extra
			if lat < floor {
				floor = lat
			}
			if lat < c.nodeLat[c.rankNode[s]][c.rankNode[d]] {
				c.nodeLat[c.rankNode[s]][c.rankNode[d]] = lat
			}
		}
	}
	if !cross {
		c.floor = sim.MaxTime
		c.closeReach()
		return nil
	}
	c.floor = floor
	if floor <= 1 {
		return &LookaheadError{Floor: floor, Topology: topologyName(c.cfg.Topology)}
	}
	c.closeReach()
	return nil
}

// closeReach computes the min-plus path closure of nodeLat
// (Floyd–Warshall over saturating adds): reach[j][i] is the cheapest
// nonempty forwarding path j→…→i, the diagonal the cheapest round trip —
// MaxTime where no rank placement provides a path. Nodes-cubed once per
// run, before any window. The initial published origin bounds are the
// atomics' zero values: every engine's first event fires at ≥ 0, so the
// first EIT reads are min_j reach[j][i] ≥ the floor, and the first
// windows open.
func (c *Cluster) closeReach() {
	n := len(c.Kernels)
	c.reach = make([][]sim.Time, n)
	for i := range c.reach {
		c.reach[i] = append([]sim.Time(nil), c.nodeLat[i]...)
	}
	for m := 0; m < n; m++ {
		for i := 0; i < n; i++ {
			if c.reach[i][m] == sim.MaxTime {
				continue
			}
			for k := 0; k < n; k++ {
				if via := satAdd(c.reach[i][m], c.reach[m][k]); via < c.reach[i][k] {
					c.reach[i][k] = via
				}
			}
		}
	}
}

// topologyName normalises the default.
func topologyName(t string) string {
	if t == "" {
		return "flat"
	}
	return t
}

// topologyExtra returns the latency added on top of RemoteLatency for a
// message between nodes a and b. All shapes keep at least one zero-add-on
// pair, so the lookahead floor is RemoteLatency itself.
func topologyExtra(topology string, a, b, nodes int, remote sim.Time) sim.Time {
	switch topology {
	case "", "flat":
		return 0
	case "ring":
		d := a - b
		if d < 0 {
			d = -d
		}
		if rd := nodes - d; rd < d {
			d = rd
		}
		return sim.Time(d-1) * (remote / 2)
	case "star":
		if a == 0 || b == 0 {
			return 0 // hub traffic is direct
		}
		return remote // leaf↔leaf pays the extra hub hop
	default:
		panic(fmt.Sprintf("cluster: unknown topology %q", topology))
	}
}

// RouteMessage implements mpi.Router: it runs on the sender's shard at the
// virtual instant the send fired, with the arrival pre-stamped. The push
// never blocks (overflow spills to a slice) so two shards can never
// deadlock pushing to each other mid-window.
func (c *Cluster) RouteMessage(srcNode, dstNode int, arrival sim.Time, dst *mpi.Rank, src, tag int, size int64) {
	q := c.queues[srcNode][dstNode]
	q.seq++
	if q.capW == sim.MaxTime {
		// First push into an observed-empty queue: this fire instant caps
		// the sender's published bound until the receiver takes custody.
		// Sender fires are monotone, so the first armed is the oldest.
		q.capW = c.Engines[srcNode].Now()
		c.armed[srcNode]++
	}
	m := xmsg{arrival: arrival, srcNode: srcNode, seq: q.seq,
		dst: dst, src: src, tag: tag, size: size}
	q.n.Add(1)
	c.inbound[dstNode].n.Add(1)
	select {
	case q.ch <- m:
	default:
		q.mu.Lock()
		q.overflow = append(q.overflow, m)
		q.mu.Unlock()
	}
}

// drainInto appends every message queued for node i to its staging buffer
// and returns how many it took. It must run after the horizon's clock/EOT
// reads: anything pushed later carries an arrival beyond the horizon, so
// missing it is harmless.
//
// Draining is also the custody handoff of the EOT/EIT protocol: before the
// per-pair count is decremented — the signal that lets the sender's next
// publish raise past its fire cap — node i's own published bound is lowered
// to the drained arrivals, so the chains those messages carry are covered
// by i's slot before the sender's slot releases them. The epoch bump makes
// the hop visible to concurrent eitFor scans.
func (c *Cluster) drainInto(i int) int {
	if c.inbound[i].n.Load() == 0 {
		return 0
	}
	st := c.staging[i]
	taken := 0
	for j := range c.queues {
		if j == i || c.queues[j] == nil {
			continue
		}
		q := c.queues[j][i]
		if q == nil || q.n.Load() == 0 {
			// A sender racing between its n.Add and the enqueue is missed
			// here, but such a message was stamped after this node's clock
			// reads: its arrival lies beyond the current horizon, and the
			// next window's drain picks it up.
			continue
		}
		first := len(st)
		drained := 0
		for {
			select {
			case m := <-q.ch:
				st = append(st, m)
				drained++
				continue
			default:
			}
			break
		}
		q.mu.Lock()
		if len(q.overflow) > 0 {
			st = append(st, q.overflow...)
			drained += len(q.overflow)
			q.overflow = q.overflow[:0]
		}
		q.mu.Unlock()
		if drained > 0 {
			if !c.cfg.FloorPacing {
				minArr := sim.MaxTime
				for _, m := range st[first:] {
					if m.arrival < minArr {
						minArr = m.arrival
					}
				}
				slot := &c.eot[i]
				if minArr < sim.Time(slot.Load()) {
					slot.Store(int64(minArr))
					c.eotEpoch.Add(1)
				}
			}
			q.n.Add(int64(-drained))
			c.inbound[i].n.Add(int64(-drained))
			taken += drained
		}
	}
	c.staging[i] = st
	return taken
}

// horizonFor computes node i's safe simulation horizon from the other
// nodes' published clocks and the lookahead floor, capped at the run
// horizon (done nodes publish MaxTime and stop constraining anyone).
//
// The horizon is STRICT: a peer sitting exactly at minOther can still send
// a message with the minimum delay, which arrives at exactly
// minOther+floor. Running through that instant inclusively would fire the
// node's own events at minOther+floor before the late arrival is staged —
// an ordering that depends on where the window boundary fell, i.e. on the
// shard count. Stopping one tick short keeps every arrival strictly ahead
// of the window, so any window cut injects the identical Schedule sequence.
func (c *Cluster) horizonFor(i int) sim.Time {
	minOther := sim.MaxTime
	for j := range c.clocks {
		if j == i {
			continue
		}
		if cj := sim.Time(c.clocks[j].Load()); cj < minOther {
			minOther = cj
		}
	}
	if minOther >= c.horizon || c.floor-1 >= c.horizon-minOther {
		return c.horizon
	}
	return minOther + c.floor - 1
}

// eitFor computes node i's earliest input time: every event chain not yet
// injected somewhere is covered by its custodian's published bound and
// pays at least the closure latency to reach i, so no message can arrive
// at node i before min_j (eot[j] + reach[j][i]). The j = i term covers
// i's own sends echoing back (cheapest round trip); directions with no
// rank placement sit at MaxTime and never constrain.
//
// The scan is not atomic, and coverage can hop between slots mid-scan:
// a receiver lowers its slot (custody) and the sender then raises past
// its fire cap. Reading the receiver early (pre-lower) and the sender
// late (post-raise) would miss the chain entirely, so the scan retries
// until it straddles no custody lower (eotEpoch unchanged): then every
// raise it observed had its paired lower before the scan began, and the
// lowered slot value was read.
func (c *Cluster) eitFor(i int) sim.Time {
	for {
		e0 := c.eotEpoch.Load()
		eit := sim.MaxTime
		for j := range c.eot {
			if e := satAdd(sim.Time(c.eot[j].Load()), c.reach[j][i]); e < eit {
				eit = e
			}
		}
		if c.eotEpoch.Load() == e0 {
			return eit
		}
	}
}

// windowHorizon is the EOT/EIT window bound: one tick short of the node's
// EIT (the same strictness argument as horizonFor — an arrival at exactly
// EIT must stay ahead of the window), capped at the run horizon. Unlike
// the floor cadence this is event-driven: when every peer's next event is
// milliseconds away, the window spans milliseconds.
func (c *Cluster) windowHorizon(i int) sim.Time {
	if eit := c.eitFor(i); eit <= c.horizon {
		return eit - 1
	}
	return c.horizon
}

// satAdd is a+b saturating at MaxTime (done nodes and traffic-free pairs
// publish MaxTime, and MaxTime plus any latency must not wrap negative).
func satAdd(a, b sim.Time) sim.Time {
	if s := a + b; s >= a {
		return s
	}
	return sim.MaxTime
}

// need is the earliest instant node i's engine must act at: its next
// pending event or its earliest staged (drained-but-uninjected) arrival.
// A window whose horizon falls short of it would fire and inject nothing.
func (c *Cluster) need(i int) sim.Time {
	need := c.Engines[i].NextEventAt()
	for _, m := range c.staging[i] {
		if m.arrival < need {
			need = m.arrival
		}
	}
	return need
}

// publishEOT recomputes node i's coverage bound over everything currently
// in its custody and stores it, reporting whether the bound ROSE (the only
// change that can open a peer's window). It must run with i's engine
// quiescent (between windows, on the owner shard), and need must be
// c.need(i) as of now.
//
// The bound is the min of four terms:
//
//   - Engine.NextEventAt — every pending local event. This undercuts a
//     pure origin bound (message-caused events are counted even though
//     their chains are also covered at upstream custodians), which is
//     merely conservative.
//   - the earliest staged (drained-but-uninjected) arrival.
//   - the node's clock when the transport reports unflushed deferred
//     sends — a belt-and-braces cross-check; between windows every rank
//     body is parked in a blocking call with its deferred-step queue
//     flushed, so any send the engine probe cannot see is scheduled and
//     already counted.
//   - each out-queue's fire cap (pairQueue.capW) while the receiver has
//     not yet drained it (see capBound).
//
// The first two terms are need. The store is NOT monotone: new sends
// pushed this window can legitimately pull the bound below the previous
// publish. Readers that still see the old value are safe — the old bound
// was ≤ the first event this window fired, hence ≤ every fire instant of
// the window's pushes — and lowers within one slot never need the epoch
// (coverage never hops here).
func (c *Cluster) publishEOT(i int, need sim.Time) bool {
	bound := need
	if c.World.NodePendingSends(i) > 0 {
		if now := c.Engines[i].Now(); now < bound {
			bound = now
		}
	}
	return c.storeEOT(i, c.capBound(i, bound))
}

// flushEOT recomputes a FINISHED node's coverage bound: only its out-queue
// fire caps remain (the engine is stopped and staged messages die
// undelivered), so the bound rises to MaxTime as receivers drain — at
// which point the node stops constraining every peer's EIT. The owner
// shard keeps polling it after finish (runShard) until fully flushed.
// Returns whether the bound rose.
func (c *Cluster) flushEOT(i int) bool {
	return c.storeEOT(i, c.capBound(i, sim.MaxTime))
}

// capBound folds node i's live out-queue fire caps into bound. A cap is
// cleared — releasing custody — only when the undrained count reads 0,
// which the receiver decrements AFTER lowering its own slot to the staged
// arrivals (drainInto), or when the receiver has finished (its chains die
// undelivered). With no cap armed it costs nothing.
func (c *Cluster) capBound(i int, bound sim.Time) sim.Time {
	if c.armed[i] == 0 {
		return bound
	}
	for k, q := range c.queues[i] {
		if q == nil || q.capW == sim.MaxTime {
			continue
		}
		if q.n.Load() == 0 || sim.Time(c.clocks[k].Load()) == sim.MaxTime {
			q.capW = sim.MaxTime
			c.armed[i]--
			continue
		}
		if q.capW < bound {
			bound = q.capW
		}
	}
	return bound
}

// storeEOT publishes bound as node i's coverage bound and reports whether
// it rose.
func (c *Cluster) storeEOT(i int, bound sim.Time) bool {
	slot := &c.eot[i]
	old := sim.Time(slot.Load())
	if bound != old {
		slot.Store(int64(bound))
	}
	return bound > old
}

// afterRun classifies why a node's engine came back from Run: still going
// (false), finished its ranks, or interrupted — the latter aborts the whole
// cluster. It returns true when the node must not be stepped further.
func (c *Cluster) afterRun(i int) bool {
	eng := c.Engines[i]
	if !eng.Stopped() {
		return false
	}
	if c.pending[i] == 0 {
		c.finish(i, false)
		return true
	}
	var cause error
	if c.cfg.OnNodeStop != nil {
		cause = c.cfg.OnNodeStop(i)
	}
	c.abortWith(&InterruptError{Node: i, Cause: cause})
	return true
}

// finish marks node i complete: its end is its engine's current instant
// (the last rank's exit, or the run horizon when capped), and its
// published clock becomes MaxTime so it stops constraining the others.
// Its coverage bound is released too — immediately under floor pacing,
// and as receivers drain its in-flight sends under EOT/EIT.
func (c *Cluster) finish(i int, capped bool) {
	c.done[i] = true
	c.capped[i] = capped
	c.ends[i] = c.Engines[i].Now()
	c.clocks[i].Store(int64(sim.MaxTime))
	if c.cfg.FloorPacing {
		c.eot[i].Store(int64(sim.MaxTime))
	} else {
		c.flushEOT(i)
	}
	c.bump()
}

func (c *Cluster) abortWith(err error) {
	c.abortMu.Lock()
	if c.abortErr == nil {
		c.abortErr = err
	}
	c.abortMu.Unlock()
	c.abort.Store(true)
	c.bump()
}

// bump publishes cluster-wide progress and wakes any parked shard. The
// generation increment is sequenced before the waiter check, and a parking
// shard increments parked (under progressMu) before re-checking the
// generation — so either the parker sees the new generation and never
// waits, or this bump sees parked > 0 and broadcasts under the mutex the
// parker holds until its Wait releases it. No wakeup can be lost.
func (c *Cluster) bump() {
	c.progressGen.Add(1)
	if c.parked.Load() == 0 {
		return
	}
	c.progressMu.Lock()
	c.progress.Broadcast()
	c.progressMu.Unlock()
}

// windowStat describes one executed window to Cluster.onWindow.
type windowStat struct {
	node            int
	fired, injected int
	// pendingSends: the node had a cross-node send deferred behind a
	// compute when the window opened (the window ran even if not due).
	pendingSends bool
	// capped: the window ran to the run horizon.
	capped bool
}

// stepNode visits node i once: under EOT/EIT pacing it runs one lookahead
// window if one is due, under floor pacing whenever the horizon moved. It
// returns true if the node made progress (fired events, moved its clock,
// took custody of messages, or raised its EOT row).
//
// A window is DUE when the node's need — its next pending event or its
// earliest staged arrival — falls at or before the horizon h. Every event
// on any node raises its peers' EITs a little, so most visits find h moved
// but nothing to do before it; running such a window would only move the
// clock, publish, and wake every parked shard to repeat the exercise. A
// not-due visit skips all of that: the engine is untouched and only the
// bound is republished. Skipping is invisible to the simulation — the
// skipped Run(h) would have fired nothing, and an injection always runs
// the engine to exactly its arrival − 1 first, so every Schedule call
// keeps its schedAt. Two visits are never skipped:
//
//   - a node with NodePendingSends > 0: its bound is its clock, so only
//     running windows advances it; skipping would pin every peer's EIT at
//     clock + L forever.
//   - a window reaching the run horizon: that window caps the node.
//
// Under EOT/EIT pacing, then, every executed window fires or injects at
// least one event, except horizon-capped ones and those forced by a
// pending send (TestWindowsAreDue).
func (c *Cluster) stepNode(i int) bool {
	eng := c.Engines[i]
	now := eng.Now()
	if c.cfg.FloorPacing {
		h := c.horizonFor(i)
		if h <= now {
			return false
		}
		c.drainInto(i)
		c.runWindow(i, now, h)
		return true
	}
	h := c.windowHorizon(i)
	// Drain even when no window runs: taking custody of any in-flight
	// message (lowering this slot, decrementing the pair count) is what
	// lets the SENDER's next publish raise past its fire cap — a node that
	// never drained would pin its senders forever.
	took := c.drainInto(i) > 0
	need := c.need(i)
	if h <= now || (need > h && h < c.horizon && c.World.NodePendingSends(i) == 0) {
		// Blocked on a peer's bound, or not due. Republish: a cap of our
		// own may have lifted since the last window (a receiver drained
		// us), which raises peers' EITs. A custody take or a rise bumps so
		// parked shards re-evaluate; progress is claimed only when
		// something moved, so an idle node still parks.
		if rose := c.publishEOT(i, need); took || rose {
			c.bump()
			return true
		}
		return false
	}
	c.runWindow(i, now, h)
	return true
}

// runWindow advances node i's engine from now to h, injecting its staged
// arrivals up to h.
//
// The injection protocol is what makes window boundaries — which depend on
// shard interleaving — invisible: staged messages are sorted into the total
// order (arrival, srcNode, seq); for each distinct arrival T the engine
// first runs to exactly T−1 (so all local events before T hold their event
// sequence numbers), then the deliveries at T are scheduled in sorted
// order; finally the engine runs to the window horizon. Any shard count
// executes the identical Schedule-call sequence on this engine — and the
// horizon rule (floor cadence or EOT/EIT) only moves those boundaries, so
// both pacings execute it too (TestLookaheadFloorEquivalence).
func (c *Cluster) runWindow(i int, now, h sim.Time) {
	eng := c.Engines[i]
	pendingSends := c.onWindow != nil && c.World.NodePendingSends(i) > 0
	st := c.staging[i]
	if len(st) > 1 {
		sort.Slice(st, func(a, b int) bool {
			if st[a].arrival != st[b].arrival {
				return st[a].arrival < st[b].arrival
			}
			if st[a].srcNode != st[b].srcNode {
				return st[a].srcNode < st[b].srcNode
			}
			return st[a].seq < st[b].seq
		})
	}
	pos, fired := 0, 0
	for pos < len(st) {
		t := st[pos].arrival
		if t > h {
			break
		}
		fired += eng.Run(t - 1)
		if c.afterRun(i) {
			c.consumeStaged(i, pos)
			return
		}
		for pos < len(st) && st[pos].arrival == t {
			in := c.pools[i].draw(st[pos])
			eng.Schedule(t, in.fire)
			pos++
		}
	}
	c.consumeStaged(i, pos)
	fired += eng.Run(h)
	c.windows[i]++
	if c.onWindow != nil {
		c.onWindow(windowStat{node: i, fired: fired, injected: pos,
			pendingSends: pendingSends, capped: h >= c.horizon})
	}
	if !c.cfg.FloorPacing && c.floor < sim.MaxTime && h < c.horizon {
		// Estimate how many floor-cadence windows this one replaced: the
		// floor protocol advances the frontier by ≈ one floor per window,
		// so a span of k floors cost ≈ k windows. The span runs from the
		// previous window's end, so it includes every visit skipped as not
		// due. Horizon-capped windows are excluded — once the peers are
		// done, the floor protocol also jumps to the horizon in one window,
		// so counting that span would claim elision the lookahead didn't
		// earn.
		if est := int64((h - now) / c.floor); est > 1 {
			c.elided[i] += est - 1
		}
	}
	if c.afterRun(i) {
		return
	}
	c.clocks[i].Store(int64(eng.Now()))
	if eng.Now() >= c.horizon {
		c.finish(i, c.pending[i] > 0)
		return
	}
	if !c.cfg.FloorPacing {
		c.publishEOT(i, c.need(i))
	}
	c.bump()
}

// Windows returns the total number of lookahead windows executed across
// all nodes (valid after Run). Under floor pacing this tracks the
// simulated span divided by the latency floor. Under EOT/EIT lookahead a
// window runs only when due — it fires or injects at least one event —
// save each node's horizon-capped final window and the windows forced
// while a cross-node send waits behind a compute.
func (c *Cluster) Windows() int64 {
	var n int64
	for _, w := range c.windows {
		n += w
	}
	return n
}

// WindowsElided returns the estimated number of floor-cadence windows the
// EOT/EIT horizon collapsed, not-due visits included (valid after Run; 0
// under FloorPacing). The
// count depends on where shard scheduling happens to cut the windows, so
// it is a diagnostic — never part of a determinism-pinned artifact.
func (c *Cluster) WindowsElided() int64 {
	var n int64
	for _, e := range c.elided {
		n += e
	}
	return n
}

// consumeStaged drops the first n staged messages (they were injected).
func (c *Cluster) consumeStaged(i, n int) {
	st := c.staging[i]
	c.staging[i] = st[:copy(st, st[n:])]
}

// shardSpinPasses bounds how many fruitless passes a shard burns yielding
// the OS thread before it parks on the progress condition. A couple of
// spins cover the common case where a peer's window is about to land;
// beyond that, spinning only steals cycles from the engines doing the
// actual work (catastrophically so under the race detector, where every
// polled atomic is instrumented).
const shardSpinPasses = 8

// runShard advances the nodes dealt to shard s until they all finish or
// the cluster aborts. Shards never block on each other's windows: a node
// that cannot advance (its horizon has not moved) is skipped. A pass with
// no progress first yields the OS thread, then — after shardSpinPasses
// fruitless passes — parks until any peer runs a window, finishes, or
// aborts (every such event bumps the progress generation). When the last
// live shard parks with no bump since its peers parked, the run aborts
// with a *StallError (abortIfStalledLocked).
func (c *Cluster) runShard(s int) {
	n := len(c.Engines)
	spins := 0
	for {
		if c.abort.Load() {
			return
		}
		gen := c.progressGen.Load()
		progress, left := false, 0
		for i := s; i < n; i += c.shards {
			if c.done[i] {
				// A finished node still holds fire caps for sends its
				// receivers have not drained; keep flushing until its
				// bound reaches MaxTime so peers' EITs are released.
				if !c.cfg.FloorPacing && sim.Time(c.eot[i].Load()) != sim.MaxTime {
					left++
					if c.flushEOT(i) {
						progress = true
						c.bump()
					}
				}
				continue
			}
			left++
			if c.stepNode(i) {
				progress = true
			}
		}
		if left == 0 {
			c.shardExited()
			return
		}
		if progress {
			spins = 0
			continue
		}
		if spins < shardSpinPasses {
			spins++
			runtime.Gosched()
			continue
		}
		c.progressMu.Lock()
		c.parked.Add(1)
		if c.progressGen.Load() == gen {
			if c.stallGen != gen {
				c.stallGen, c.stallParked = gen, 0
			}
			c.stallParked++
			c.abortIfStalledLocked()
		}
		for c.progressGen.Load() == gen && !c.abort.Load() {
			c.progress.Wait()
		}
		c.parked.Add(-1)
		c.progressMu.Unlock()
		spins = 0
	}
}

// shardExited records that shard's nodes have all finished. The exit can
// complete a stall: peers parked at the current generation are waiting on
// a bump only a live shard could make.
func (c *Cluster) shardExited() {
	c.progressMu.Lock()
	c.exited++
	c.abortIfStalledLocked()
	c.progressMu.Unlock()
}

// abortIfStalledLocked aborts the run with a *StallError when every shard
// has either exited or parked after a fruitless pass at the current
// progress generation. Such a shard has seen every effect up to that
// generation, and only a shard's pass can bump it again, so nothing will
// ever wake them: without this check the run would hang silently. The
// caller holds progressMu, which every other shard took on its way into
// Wait or out of runShard, so reading their nodes' state is race-free.
func (c *Cluster) abortIfStalledLocked() {
	if c.stallParked == 0 || c.stallGen != c.progressGen.Load() ||
		c.stallParked+c.exited < c.shards || c.abort.Load() {
		return
	}
	err := &StallError{Nodes: make([]NodeState, len(c.Engines))}
	for i, eng := range c.Engines {
		err.Nodes[i] = NodeState{
			Node: i, Done: c.done[i],
			Now: eng.Now(), NextEvent: eng.NextEventAt(),
			EOT: sim.Time(c.eot[i].Load()), EIT: c.eitFor(i),
			PendingSends: c.World.NodePendingSends(i),
			ArmedCaps:    c.armed[i],
			Inbound:      c.inbound[i].n.Load(),
		}
	}
	c.abortMu.Lock()
	if c.abortErr == nil {
		c.abortErr = err
	}
	c.abortMu.Unlock()
	c.abort.Store(true)
	c.progress.Broadcast()
}

// Run advances all nodes until every spawned rank has exited or the horizon
// passes, and returns the cluster end time — the latest node end. The
// error is non-nil only when a node was interrupted (watchdog or context
// hook); the caller still owns Settle/Shutdown.
func (c *Cluster) Run(horizon sim.Time) (sim.Time, error) {
	if !c.finalized {
		if err := c.Finalize(); err != nil {
			return 0, err
		}
	}
	if horizon <= 0 || horizon >= sim.MaxTime {
		horizon = 3600 * sim.Second
	}
	c.horizon = horizon
	var wg sync.WaitGroup
	for s := 1; s < c.shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c.runShard(s)
		}(s)
	}
	c.runShard(0)
	wg.Wait()
	var end sim.Time
	for i := range c.ends {
		if !c.done[i] {
			// Aborted mid-flight: report how far the node got.
			c.ends[i] = c.Engines[i].Now()
		}
		if c.ends[i] > end {
			end = c.ends[i]
		}
	}
	c.abortMu.Lock()
	err := c.abortErr
	c.abortMu.Unlock()
	return end, err
}

// NodeEnd returns node i's end instant (after Run).
func (c *Cluster) NodeEnd(i int) sim.Time { return c.ends[i] }

// Capped reports whether node i hit the run horizon with ranks pending.
func (c *Cluster) Capped(i int) bool { return c.capped[i] }

// GVT returns the global virtual time: the minimum over all node ends and
// published clocks — every event before it has fired on every node.
func (c *Cluster) GVT() sim.Time {
	gvt := sim.MaxTime
	for i := range c.clocks {
		cl := sim.Time(c.clocks[i].Load())
		if c.done[i] {
			cl = c.ends[i]
		}
		if cl < gvt {
			gvt = cl
		}
	}
	return gvt
}

// Settle closes the open busy-accounting stretches of every node, the step
// a single-node RunUntilWatchedExit performs on return. Call it after Run,
// before reading metrics or finishing trace recorders.
func (c *Cluster) Settle() {
	for _, k := range c.Kernels {
		k.Settle()
	}
}

// Shutdown releases every node's background goroutines. The cluster must
// not be used afterwards.
func (c *Cluster) Shutdown() {
	for _, k := range c.Kernels {
		k.Shutdown()
	}
}
