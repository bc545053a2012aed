// Package cluster simulates a whole machine room: N node-local kernels —
// each the single-node engine of internal/sim + internal/sched — coupled
// by an inter-node MPI latency model and advanced by a conservative
// discrete-event simulation on one goroutine.
//
// The nodes are logical processes in the Chandy–Misra–Bryant sense: each
// owns its engine and clock, and the only coupling between them is the
// interconnect. Every inter-node message costs at least the latency floor
// L (the interconnect's RemoteLatency plus the smallest topology add-on
// over cross-node rank pairs). L < 2 leaves no room for a window past any
// node's next event — a zero-lookahead deadlock — and is rejected with a
// structured *LookaheadError before the run starts.
//
// The executor is a calendar of nodes. Node i's key is the earliest
// instant it can still act at: its next engine event or its earliest
// staged arrival, whichever comes first — or its clock while one of its
// cross-node sends waits behind a compute. Every future event anywhere
// descends from some node's key, and a chain of messages from node j
// reaches node i no sooner than R[j][i], the min-plus closure of the
// per-pair latency floors (the cheapest nonempty path, computed once in
// Finalize; R[i][i] is the cheapest round trip). So nothing can still
// arrive at node i before
//
//	EIT_i = min_j (key_j + R[j][i])
//
// The loop picks the node with the smallest key, the head, and runs it in
// one window to h = EIT_head − 1, capped at the run horizon. The bound is
// strict: an arrival at exactly EIT_head must stay ahead of the window. A
// cross-node send appends the message straight to the receiver's staging
// slice and lowers the receiver's key. Only the head ever runs, so the
// keys are plain cached values, read and written without synchronisation.
//
// The calendar cannot stall. The head's key is the global minimum and
// every R term is at least L ≥ 2, so h ≥ key_head + L − 1 > key_head
// unless the run horizon is nearer, and a window to the run horizon
// finishes its node. So every window reaches the head's key, and there it
// fires or injects at least one event — or, when the key is the clock of
// a node with a pending send, advances that clock by at least L − 1. A
// workload that deadlocks drains its engines, and its nodes cap at the
// horizon.
//
// Determinism is the headline property. Cross-node deliveries are injected
// by a window-invariant protocol (see runWindow), so where the windows
// fall is invisible to the simulation: timelines, traces and fault logs
// are byte-identical under any horizon rule. Config.FloorPacing cuts the
// windows differently — the keys become the clocks and every window spans
// one floor — and the equivalence suites pin both cuts to the same bytes.
// Parallelism lives one level up: batch replicas run on separate workers
// (internal/batch).
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"hpcsched/internal/batch"
	"hpcsched/internal/mpi"
	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// nodeEngineSalt separates the per-node engine RNG streams from every other
// derived stream in the tree (batch replicas, storms, fault compiles).
const nodeEngineSalt = 0xc105_7e20_0000_0000

// NodeSeed is node i's share of a run-wide seed: node 0 takes seed itself
// and node i > 0 takes DeriveSeed(seed, salt+i). Node 0 of any cluster
// therefore draws exactly the streams of a single-node run, which is what
// makes a single-node run the 1-node case of the cluster model.
func NodeSeed(seed, salt uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return batch.DeriveSeed(seed, salt+uint64(i))
}

// Config describes a cluster simulation.
type Config struct {
	// Nodes is the number of simulated nodes (≥ 1).
	Nodes int
	// Topology shapes the inter-node latency add-ons: "flat" (uniform
	// interconnect, the default), "ring" (latency grows with hop distance)
	// or "star" (leaf↔leaf traffic pays one extra hub hop).
	Topology string
	// Seed drives all randomness; node i's engine seeds from
	// NodeSeed(Seed, nodeEngineSalt, i), so node 0 runs on Seed itself.
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
	// FloorPacing, when true, keys the calendar by the node clocks and cuts
	// every window at key_head + floor − 1: one latency floor per window,
	// the classic clock+floor cadence. The simulation is byte-identical
	// either way — the knob exists for the equivalence suites that prove
	// window boundaries invisible, and for window-cadence comparisons.
	FloorPacing bool
}

// LookaheadError reports a lookahead floor too small to make progress: a
// window stops one tick short of the earliest possible arrival (a message
// can arrive at exactly key+floor), and with floor < 2ns that leaves no
// window past the head's key — the simulation would deadlock, or livelock
// in zero-sized steps. It is returned by Finalize before any event runs.
type LookaheadError struct {
	Floor    sim.Time
	Topology string
}

func (e *LookaheadError) Error() string {
	return fmt.Sprintf("cluster: lookahead floor %v on %q topology is too small; "+
		"inter-node latency (mpi.Options.RemoteLatency plus topology add-ons) must be ≥ 2ns",
		e.Floor, e.Topology)
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

// xmsg is one staged cross-node message: the arrival instant is stamped
// by the sender, and (arrival, srcNode, seq) is a total order — seq is the
// cluster's running send counter, so two messages can only tie on
// (arrival, srcNode) if they are the same message.
type xmsg struct {
	arrival sim.Time
	srcNode int
	seq     uint64
	dst     *mpi.Rank
	src     int
	tag     int
	size    int64
}

// cmpXmsg orders staged messages by (arrival, srcNode, seq).
func cmpXmsg(a, b xmsg) int {
	if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
		return c
	}
	if c := cmp.Compare(a.srcNode, b.srcNode); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
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

// injectPool is the cluster's free list of deliveries.
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

// Cluster is a set of simulated nodes advanced by a calendar of nodes.
type Cluster struct {
	Engines []*sim.Engine
	Kernels []*sched.Kernel
	World   *mpi.World

	cfg     Config
	horizon sim.Time
	floor   sim.Time

	pool    injectPool
	staging [][]xmsg // per-node routed-but-not-yet-injected messages
	seq     uint64   // running cross-node send counter (see xmsg)

	// keys[i] is node i's calendar key (see key), MaxTime once the node is
	// done. RouteMessage lowers the receiver's key to a staged arrival, and
	// every window recomputes the key of the node it ran.
	keys []sim.Time
	// reachTo[i][j] is the min-plus path closure of the per-pair latency
	// floors — the cheapest nonempty forwarding path j→…→i (reachTo[i][i]
	// is the cheapest round trip), MaxTime where no rank placement provides
	// a path. A chain from node j cannot reach i faster, including
	// multi-hop forwards. Fault-injected mpidelay windows only ever add
	// latency on top, and a finished node only removes paths, so the
	// static closure stays conservative. Rows are per receiver, so a
	// window's horizon scan reads one row. Under FloorPacing every entry
	// is the floor.
	reachTo [][]sim.Time
	// uniform marks a reach closure with one off-diagonal value, reachOff,
	// and one diagonal value, reachDiag (see uniformReach): every flat
	// topology whose nodes all exchange traffic, and every FloorPacing run.
	// Its window horizon needs only the two least keys.
	uniform             bool
	reachOff, reachDiag sim.Time
	// windows/elided count the windows run and the estimated
	// floor-cadence windows the lookahead horizon collapsed. Both are a
	// pure function of the run and its pacing, but they describe the
	// executor, not the simulation, so they must never feed a
	// determinism-pinned artifact.
	windows, elided int64

	// onWindow, when non-nil, observes every executed window (tests only).
	onWindow func(windowStat)

	done     []bool
	ends     []sim.Time
	capped   []bool // node hit the horizon with ranks pending
	rankNode []int

	err       error // first abort cause; ends the run
	finalized bool
}

// New builds the node engines and kernels. Ranks are placed with NewWorld
// and launched with World.Spawn, which watches each rank on its node's
// kernel: a node is finished when its kernel watches no live rank. Call
// Finalize after the last spawn, then Run.
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
	c := &Cluster{
		cfg:     cfg,
		staging: make([][]xmsg, cfg.Nodes),
		keys:    make([]sim.Time, cfg.Nodes),
		done:    make([]bool, cfg.Nodes),
		ends:    make([]sim.Time, cfg.Nodes),
		capped:  make([]bool, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		eng := sim.NewEngine(NodeSeed(cfg.Seed, nodeEngineSalt, i))
		c.Engines = append(c.Engines, eng)
		c.Kernels = append(c.Kernels, cfg.NewNode(i, eng))
	}
	return c, nil
}

// Floor returns the lookahead floor (valid after Finalize).
func (c *Cluster) Floor() sim.Time { return c.floor }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.Kernels) }

// NewWorld creates the MPI world spanning the cluster, on the Config.MPI
// transport (the same options Finalize derives the lookahead floor from),
// with the cluster installed as the cross-node router. Rank i is placed on
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

// RankRNGs returns n workload jitter streams, split in rank order from the
// engine of each rank's node (Engines[RankNode(i)].RNG().Split()). With
// shared, all ranks of one node share that node's first split. A stream is
// only ever drawn on its own node's engine, so any window cut draws the
// identical workload; at one node this is the rule the single-node goldens
// were recorded with. Call it after NewWorld.
func (c *Cluster) RankRNGs(n int, shared bool) []*sim.RNG {
	rngs := make([]*sim.RNG, n)
	last := make([]*sim.RNG, len(c.Engines)) // per node: its latest split
	for i := range rngs {
		node := c.rankNode[i]
		if !shared || last[node] == nil {
			last[node] = c.Engines[node].RNG().Split()
		}
		rngs[i] = last[node]
	}
	return rngs
}

// RankNode returns the node rank i was placed on.
func (c *Cluster) RankNode(i int) int { return c.rankNode[i] }

// Finalize applies the topology's per-rank-pair latency add-ons (placement
// must be complete), computes the lookahead floor — rejecting one below
// 2ns with *LookaheadError — and closes the per-pair floors into reach. It
// must be called once, after the last Spawn and before Run.
func (c *Cluster) Finalize() error {
	if c.World == nil {
		return fmt.Errorf("cluster: Finalize before NewWorld")
	}
	c.finalized = true
	nodes := len(c.Kernels)
	// nodeLat[i][k] is the smallest transport latency from node i to node
	// k over all placed rank pairs, MaxTime when no such pair exists.
	nodeLat := make([][]sim.Time, nodes)
	for i := range nodeLat {
		row := make([]sim.Time, nodes)
		for k := range row {
			row[k] = sim.MaxTime
		}
		nodeLat[i] = row
	}
	c.floor = sim.MaxTime // no cross-node traffic: horizon-capped only
	size := c.World.Size()
	for s := 0; nodes > 1 && s < size; s++ {
		for d := 0; d < size; d++ {
			a, b := c.rankNode[s], c.rankNode[d]
			if a == b {
				continue
			}
			extra := topologyExtra(c.cfg.Topology, a, b, nodes, c.cfg.MPI.RemoteLatency)
			if extra > 0 {
				c.World.SetPairExtraDelay(s, d, extra)
			}
			lat := c.cfg.MPI.RemoteLatency + extra
			c.floor = min(c.floor, lat)
			nodeLat[a][b] = min(nodeLat[a][b], lat)
		}
	}
	if c.floor <= 1 {
		return &LookaheadError{Floor: c.floor, Topology: topologyName(c.cfg.Topology)}
	}
	if c.cfg.FloorPacing {
		// Every pair at the floor: with the keys at the clocks, the head's
		// own term is the least, so each window ends at key_head + floor − 1.
		for _, row := range nodeLat {
			for k := range row {
				row[k] = c.floor
			}
		}
	}
	c.reachTo = closeReach(nodeLat)
	c.reachOff, c.reachDiag, c.uniform = uniformReach(c.reachTo)
	return nil
}

// uniformReach reports whether every off-diagonal entry of reach holds one
// value and every diagonal entry another, and returns the two. A one-node
// reach has no off-diagonal entry; off is then MaxTime.
func uniformReach(reach [][]sim.Time) (off, diag sim.Time, ok bool) {
	off, diag = sim.MaxTime, reach[0][0]
	if len(reach) > 1 {
		off = reach[0][1]
	}
	for i, row := range reach {
		for j, r := range row {
			want := off
			if i == j {
				want = diag
			}
			if r != want {
				return 0, 0, false
			}
		}
	}
	return off, diag, true
}

// closeReach returns the min-plus path closure of lat, transposed: lat[j][i]
// is the latency floor from node j to node i, and out[i][j] the cheapest
// nonempty forwarding path j→…→i (Floyd–Warshall over saturating adds),
// the diagonal the cheapest round trip. Nodes-cubed once per run, before
// any window.
func closeReach(lat [][]sim.Time) [][]sim.Time {
	n := len(lat)
	reach := make([][]sim.Time, n)
	for i := range reach {
		reach[i] = append([]sim.Time(nil), lat[i]...)
	}
	for m := 0; m < n; m++ {
		for i := 0; i < n; i++ {
			if reach[i][m] == sim.MaxTime {
				continue
			}
			for k := 0; k < n; k++ {
				if via := satAdd(reach[i][m], reach[m][k]); via < reach[i][k] {
					reach[i][k] = via
				}
			}
		}
	}
	out := make([][]sim.Time, n)
	for i := range out {
		out[i] = make([]sim.Time, n)
		for j := range out[i] {
			out[i][j] = reach[j][i]
		}
	}
	return out
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

// RouteMessage implements mpi.Router: it runs inside the sender's window
// at the virtual instant the send fired, with the arrival pre-stamped. The
// message is staged at the receiver, whose key falls to the arrival if
// that is earlier. A message for a finished node is dropped: its ranks
// have all exited.
func (c *Cluster) RouteMessage(srcNode, dstNode int, arrival sim.Time, dst *mpi.Rank, src, tag int, size int64) {
	if c.done[dstNode] {
		return
	}
	c.seq++
	c.staging[dstNode] = append(c.staging[dstNode], xmsg{arrival: arrival, srcNode: srcNode,
		seq: c.seq, dst: dst, src: src, tag: tag, size: size})
	c.keys[dstNode] = min(c.keys[dstNode], arrival)
}

// satAdd is a+b saturating at MaxTime (done nodes and traffic-free pairs
// sit at MaxTime, and MaxTime plus any latency must not wrap negative).
func satAdd(a, b sim.Time) sim.Time {
	if s := a + b; s >= a {
		return s
	}
	return sim.MaxTime
}

// key computes node i's calendar key; its engine must be quiescent. It is
// the earliest instant the node can act at: its next pending event or its
// earliest staged arrival. A node with a cross-node send deferred behind a
// compute keys at its clock instead, so it keeps running windows until
// the send has left. Under FloorPacing every key is the clock.
func (c *Cluster) key(i int) sim.Time {
	eng := c.Engines[i]
	if c.cfg.FloorPacing || c.World.NodePendingSends(i) > 0 {
		return eng.Now()
	}
	key := eng.NextEventAt()
	for _, m := range c.staging[i] {
		key = min(key, m.arrival)
	}
	return key
}

// head returns the unfinished node with the smallest key (the lowest index
// on a tie), or -1 once every node is done, and the second-least key: the
// least key of every other node, MaxTime when there is none. One pass
// finds both. A finished node's key is MaxTime, so it can only tie with
// unfinished nodes that have nothing left to do — deadlocked ones, which
// the horizon caps.
func (c *Cluster) head() (int, sim.Time) {
	head, least, second := 0, c.keys[0], sim.MaxTime
	for i := 1; i < len(c.keys); i++ {
		k := c.keys[i]
		second = min(second, max(k, least))
		if k < least {
			head, least = i, k
		}
	}
	if least < sim.MaxTime {
		return head, second
	}
	for i, done := range c.done {
		if !done {
			return i, second
		}
	}
	return -1, second
}

// windowHorizon is the window bound for the head: one tick short of its
// earliest input time, min_j(key_j + reachTo[head][j]), capped at the run
// horizon. second is the least key of every node but the head. Under a
// uniform reach the minimum has two candidates, the head's own round trip
// and the least other key's path, so no row is scanned. Ring and star
// reach are not uniform and scan the head's row. Under FloorPacing the
// keys are clocks and every reachTo entry is the floor, so the bound is
// key_head + floor − 1: every other clock is at least the head's, so no
// message sent from now on can arrive sooner.
func (c *Cluster) windowHorizon(head int, second sim.Time) sim.Time {
	h := c.horizon
	if c.uniform {
		if eit := min(satAdd(second, c.reachOff), satAdd(c.keys[head], c.reachDiag)); eit <= h {
			h = eit - 1
		}
		return h
	}
	reach := c.reachTo[head][:len(c.keys)]
	for j, k := range c.keys {
		if eit := satAdd(k, reach[j]); eit <= h {
			h = eit - 1
		}
	}
	return h
}

// jobDone applies the completion rule to node i, whose engine must be
// quiescent: the node is finished once its kernel watches no live rank and
// none of its cross-node sends is still waiting for its route step. The
// last rank's exit stops the engine at once, so a send that rank issued at
// the same instant is still a pending same-instant event; the instant's
// remaining events are fired first so that send leaves the node.
func (c *Cluster) jobDone(i int) bool {
	if c.Kernels[i].Watching() > 0 {
		return false
	}
	if c.World.NodePendingSends(i) > 0 {
		eng := c.Engines[i]
		eng.Run(eng.Now())
	}
	return c.World.NodePendingSends(i) == 0
}

// afterRun classifies why a node's engine came back from Run: still going
// (false), finished its ranks, or interrupted — the latter aborts the whole
// cluster. It returns true when the node must not run further.
func (c *Cluster) afterRun(i int) bool {
	eng := c.Engines[i]
	if !eng.Stopped() {
		return false
	}
	if c.jobDone(i) {
		c.finish(i, false)
		return true
	}
	var cause error
	if c.cfg.OnNodeStop != nil {
		cause = c.cfg.OnNodeStop(i)
	}
	if c.err == nil {
		c.err = &InterruptError{Node: i, Cause: cause}
	}
	return true
}

// finish marks node i complete: its end is its engine's current instant
// (the last rank's exit, or the run horizon when capped), and its key
// becomes MaxTime so it stops constraining the others. Messages still
// staged for it die undelivered.
func (c *Cluster) finish(i int, capped bool) {
	c.done[i] = true
	c.capped[i] = capped
	c.ends[i] = c.Engines[i].Now()
	c.keys[i] = sim.MaxTime
	c.staging[i] = nil
}

// windowStat describes one executed window to Cluster.onWindow.
type windowStat struct {
	node            int
	fired, injected int
	// pendingSends: the node had a cross-node send deferred behind a
	// compute when the window opened (its key was its clock).
	pendingSends bool
	// capped: the window ran to the run horizon.
	capped bool
}

// runWindow advances node i's engine to h, injecting its staged arrivals
// up to h, and recomputes the node's key.
//
// The injection protocol is what makes window boundaries invisible: staged
// messages are sorted into the total order (arrival, srcNode, seq); for
// each distinct arrival T the engine first runs to exactly T−1 (so all
// local events before T hold their event sequence numbers), then the
// deliveries at T are scheduled in sorted order; finally the engine runs
// to the window horizon. Any horizon rule therefore executes the identical
// Schedule-call sequence on this engine — the lookahead bound and the
// floor cadence alike (TestLookaheadFloorEquivalence).
func (c *Cluster) runWindow(i int, h sim.Time) {
	eng := c.Engines[i]
	now := eng.Now()
	pendingSends := c.onWindow != nil && c.World.NodePendingSends(i) > 0
	st := c.staging[i]
	if len(st) > 1 {
		slices.SortFunc(st, cmpXmsg)
	}
	pos, fired := 0, 0
	for pos < len(st) {
		t := st[pos].arrival
		if t > h {
			break
		}
		fired += eng.Run(t - 1)
		if c.afterRun(i) {
			return
		}
		for pos < len(st) && st[pos].arrival == t {
			in := c.pool.draw(st[pos])
			eng.Schedule(t, in.fire)
			pos++
		}
	}
	if pos > 0 {
		c.staging[i] = st[:copy(st, st[pos:])]
	}
	fired += eng.Run(h)
	c.windows++
	if c.onWindow != nil {
		c.onWindow(windowStat{node: i, fired: fired, injected: pos,
			pendingSends: pendingSends, capped: h >= c.horizon})
	}
	if !c.cfg.FloorPacing && c.floor < sim.MaxTime && h < c.horizon {
		// Estimate how many floor-cadence windows this one replaced: the
		// floor protocol advances a node by about one floor per window, so
		// a span of k floors costs about k windows. Horizon-capped windows
		// are excluded — once the peers are done, the floor cadence also
		// jumps to the horizon in one window, so counting that span would
		// claim elision the lookahead did not earn.
		// span ≥ 2·floor, written so it cannot overflow, skips the divide
		// for the common window of under two floors (estimate ≤ 1).
		if span := h - now; span-c.floor >= c.floor {
			c.elided += int64(span/c.floor) - 1
		}
	}
	if c.afterRun(i) {
		return
	}
	if eng.Now() >= c.horizon {
		c.finish(i, c.Kernels[i].Watching() > 0)
		return
	}
	c.keys[i] = c.key(i)
}

// Windows returns the total number of windows executed across all nodes
// (valid after Run). Under floor pacing this tracks the simulated span
// divided by the latency floor, times the node count. Under the lookahead
// bound a window fires or injects at least one event, save each node's
// horizon-capped final window and the windows run while a cross-node send
// waits behind a compute.
func (c *Cluster) Windows() int64 { return c.windows }

// WindowsElided returns the estimated number of floor-cadence windows the
// lookahead horizon collapsed (valid after Run; 0 under FloorPacing). It
// describes the executor, not the simulation, so it is a diagnostic —
// never part of a determinism-pinned artifact.
func (c *Cluster) WindowsElided() int64 { return c.elided }

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
	// A node with no live rank — none placed there, or every body returned
	// at spawn — is finished before its first window: its OS noise alone
	// must not carry it to the horizon.
	for i := range c.Kernels {
		if c.jobDone(i) {
			c.finish(i, false)
		} else {
			c.keys[i] = c.key(i)
		}
	}
	for c.err == nil {
		head, second := c.head()
		if head < 0 {
			break
		}
		c.runWindow(head, c.windowHorizon(head, second))
	}
	var end sim.Time
	for i := range c.ends {
		if !c.done[i] {
			// Aborted mid-flight: report how far the node got.
			c.ends[i] = c.Engines[i].Now()
		}
		end = max(end, c.ends[i])
	}
	return end, c.err
}

// NodeEnd returns node i's end instant (after Run).
func (c *Cluster) NodeEnd(i int) sim.Time { return c.ends[i] }

// Capped reports whether node i hit the run horizon with ranks pending.
func (c *Cluster) Capped(i int) bool { return c.capped[i] }

// GVT returns the global virtual time: the minimum over all node ends and
// the clocks of unfinished nodes — every event before it has fired on
// every node.
func (c *Cluster) GVT() sim.Time {
	gvt := sim.MaxTime
	for i, eng := range c.Engines {
		cl := eng.Now()
		if c.done[i] {
			cl = c.ends[i]
		}
		gvt = min(gvt, cl)
	}
	return gvt
}

// Settle closes the open parked tick stretches of every node, the step
// Kernel.RunUntilWatchedExit performs on return. Call it after Run,
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
