// Package mpi is a simulated message-passing runtime with the subset of
// MPI semantics the paper's workloads use: blocking send/receive,
// non-blocking isend/irecv with waitall, and barriers. It plays the role
// MPI-CH 1.0.4p1 plays on the paper's machine.
//
// Ranks are simulated processes; a blocking operation puts the backing
// kernel task to sleep and message arrival wakes it, so the scheduler —
// and the paper's Load Imbalance Detector, which feeds on sleep/wake
// transitions — observes exactly the pattern a real MPI application
// produces (Figure 2: compute phase tR, wait phase tW).
//
// The transport is allocation-free in steady state: in-flight deliveries
// are world-owned pooled objects with a pre-bound engine callback (no
// closure per send), and each rank buffers undelivered messages in a
// preallocated ring instead of a map of slices.
//
// It is also batched: Send defers its overhead charge and delivery post
// into the rank's Env step queue, so all the rendezvous requests a rank
// generates in one scheduling quantum — typically a whole exchange phase of
// sends — reach the kernel as a single pre-sized handoff when the rank next
// observes state (Recv, Waitall, Barrier, Compute, Now). Every observation
// flushes first, so the simulated timeline is bit-identical to the
// unbatched one; only the per-message goroutine ping-pong disappears.
package mpi

import (
	"fmt"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// AnyTag matches any message tag in Recv/Irecv.
const AnyTag = -1

// Options models the transport. The defaults approximate shared-memory
// intra-node MPI: microsecond-scale latency, GB/s-scale bandwidth. Ranks
// placed on different nodes (the gang-scheduling extension) pay the
// Remote* figures instead.
type Options struct {
	// Latency is the fixed per-message delay from send to delivery.
	Latency sim.Time
	// ByteCost is the additional delay per payload byte.
	ByteCost float64
	// SendOverhead is CPU time charged to the sender per message.
	SendOverhead sim.Time
	// RecvOverhead is CPU time charged to the receiver per message.
	RecvOverhead sim.Time
	// BarrierLatency is the delay between the last arrival and the
	// release of the waiters.
	BarrierLatency sim.Time
	// RemoteLatency/RemoteByteCost apply between ranks on different
	// nodes (interconnect instead of shared memory).
	RemoteLatency  sim.Time
	RemoteByteCost float64
}

// DefaultOptions returns shared-memory-like transport parameters, with a
// Myrinet-class interconnect for inter-node traffic.
func DefaultOptions() Options {
	return Options{
		Latency:        2 * sim.Microsecond,
		ByteCost:       0.25, // ns per byte ≈ 4 GB/s
		SendOverhead:   500,  // ns
		RecvOverhead:   500,  // ns
		BarrierLatency: 3 * sim.Microsecond,
		RemoteLatency:  20 * sim.Microsecond,
		RemoteByteCost: 1.0, // ns per byte ≈ 1 GB/s
	}
}

type msgKey struct {
	src, tag int
}

type message struct {
	src, tag int
	size     int64
}

// delivery is one in-flight message. Deliveries are world-owned and
// pooled: fire is bound once, at allocation, so a send schedules a pooled
// engine event with a pre-existing callback — no closure, no message
// allocation per send.
type delivery struct {
	target *Rank
	m      message
	next   *delivery // free-list link
	fire   func()
}

// initialInboxCap pre-sizes each rank's message ring; exchange patterns
// with deeper backlogs grow it by doubling.
const initialInboxCap = 16

// Router delivers messages between ranks whose nodes run on different
// engines (the cluster transport, internal/cluster). RouteMessage is
// called inside the *sender's* engine run at the virtual instant the send
// overhead completes, with the arrival instant already stamped; the router
// must hand the message to dst's engine so that dst.Deliver runs there at
// exactly that instant. Stamping the arrival at send time — not enqueueing
// at arrival time — is what makes the conservative-lookahead bound sound:
// every message a node has not yet routed arrives at least the latency
// floor after the node's next event.
type Router interface {
	RouteMessage(srcNode, dstNode int, arrival sim.Time, dst *Rank, src, tag int, size int64)
}

// nodeState is the per-node half of the transport: everything Send touches
// that would be shared mutable state across cluster nodes lives here, so
// two nodes on different engines never write the same memory. Single-node
// worlds have exactly one, and the hot path is unchanged: the rank carries
// a pointer, and the counter increments and pool operations cost the same
// as the former World fields.
type nodeState struct {
	id     int
	engine *sim.Engine

	freeDeliv *delivery
	freeRoute *routeReq

	// extraDelay is added to every message this node sends while a
	// fault-injected network-delay window is active (internal/faults); zero
	// otherwise. One integer add on the Send path, no allocation.
	extraDelay sim.Time

	msgCount       int64
	msgBytes       int64
	remoteMsgCount int64

	// pendingRoutes counts cross-node sends this node has issued (drawRoute)
	// whose deferred fire has not yet run — i.e. route requests sitting in a
	// rank's deferred-step queue, not yet stamped with an arrival. While it
	// is zero, every future send from this node must originate from an engine
	// event at or after Engine.NextEventAt(), which is what lets the cluster
	// calendar key the node by its next event instead of falling back to
	// the node's clock. Touched only on the node's own engine context.
	pendingRoutes int64
}

// routeReq is one in-flight cross-node send: pooled per node like delivery,
// with a pre-bound fire callback, so a routed send allocates nothing in
// steady state. fire runs as a deferred step on the sender's engine at the
// virtual instant the send overhead has been charged — it stamps the
// arrival and hands the message to the router.
type routeReq struct {
	w      *World
	target *Rank
	src    int
	tag    int
	size   int64
	delay  sim.Time
	next   *routeReq
	fire   func()
}

// World is one MPI job: a set of ranks over one kernel (NewWorld, the
// common case) or spread over per-node engines coupled by a Router
// (NewRoutedWorld, internal/cluster). Every rank is bound to its kernel
// and node when the world is created, and Spawn watches each rank's task
// on that kernel, so a kernel's job is done when it watches no live task.
type World struct {
	opts  Options
	ranks []*Rank

	// nodes holds the per-node transport state; single-node worlds have
	// exactly one entry, routed worlds one per engine (NewRoutedWorld).
	nodes  []*nodeState
	router Router

	// pairExtra, when non-nil, is a flat size×size matrix of per-rank-pair
	// latency add-ons (row = sender, column = receiver): the inter-node
	// topology model. It composes additively with the per-node extraDelay
	// the mpidelay: fault clause drives, so neither overwrites the other.
	pairExtra []sim.Time

	barrierGen     int
	barrierArrived int
	barrierWaiters []*Rank
}

// NewWorld creates a world of size ranks, every rank bound to k as node 0.
// Ranks are created unstarted; Spawn launches them.
func NewWorld(k *sched.Kernel, size int, opts Options) *World {
	if size <= 0 {
		panic("mpi: world size must be positive")
	}
	w := &World{
		opts:           opts,
		nodes:          []*nodeState{{id: 0, engine: k.Engine}},
		barrierWaiters: make([]*Rank, 0, size),
	}
	for i := 0; i < size; i++ {
		r := &Rank{
			world:  w,
			id:     i,
			kernel: k,
			ns:     w.nodes[0],
			inbox:  make([]message, initialInboxCap),
		}
		// Pre-bind the fused-wait checks once per rank: the hot blocking
		// paths then hand the kernel an existing closure, never allocating.
		r.recvCheck = r.recvCheckFn
		r.waitallCheck = r.waitallCheckFn
		r.barrierCheck = r.barrierCheckFn
		w.ranks = append(w.ranks, r)
	}
	return w
}

// NewRoutedWorld creates a world spread over per-node engines coupled by
// rt (the cluster transport): node n runs kernels[n], and rank i is
// bound to node rankNodes[i] — kernel and transport state — before any rank
// is spawned. Binding every rank up front is what lets a body send before
// its peer is spawned: the send already prices and routes by the peer's
// real node instead of the default node 0.
func NewRoutedWorld(kernels []*sched.Kernel, rankNodes []int, opts Options, rt Router) *World {
	w := NewWorld(kernels[0], len(rankNodes), opts)
	for n := 1; n < len(kernels); n++ {
		w.nodes = append(w.nodes, &nodeState{id: n, engine: kernels[n].Engine})
	}
	for i, n := range rankNodes {
		w.bind(w.ranks[i], kernels[n], n)
	}
	w.router = rt
	return w
}

// Nodes returns the number of nodes with their own transport state.
func (w *World) Nodes() int { return len(w.nodes) }

// SetNodeExtraDelay scopes the fault-injected latency add-on to one node's
// outgoing messages: per-node fault schedules then compose with the
// rank-pair topology extras instead of overwriting each other, and two
// nodes' injectors never write the same word.
func (w *World) SetNodeExtraDelay(node int, d sim.Time) {
	if d < 0 {
		d = 0
	}
	if node < 0 || node >= len(w.nodes) {
		node = 0
	}
	w.nodes[node].extraDelay = d
}

// NodeExtraDelay returns the given node's current latency add-on.
func (w *World) NodeExtraDelay(node int) sim.Time {
	if node < 0 || node >= len(w.nodes) {
		node = 0
	}
	return w.nodes[node].extraDelay
}

// SetPairExtraDelay adds a fixed latency to every message from rank src to
// rank dst — the per-rank-pair half of the latency model (topological
// distance). It composes additively with the per-node extraDelay, so an
// mpidelay: fault window and the inter-node topology never clobber each
// other. The matrix is allocated on first use; worlds that never set a pair
// extra pay one nil check per send.
func (w *World) SetPairExtraDelay(src, dst int, d sim.Time) {
	if src < 0 || src >= len(w.ranks) || dst < 0 || dst >= len(w.ranks) {
		panic(fmt.Sprintf("mpi: SetPairExtraDelay(%d, %d) out of range", src, dst))
	}
	if d < 0 {
		d = 0
	}
	if w.pairExtra == nil {
		w.pairExtra = make([]sim.Time, len(w.ranks)*len(w.ranks))
	}
	w.pairExtra[src*len(w.ranks)+dst] = d
}

// PairExtraDelay returns the per-pair latency add-on from src to dst.
func (w *World) PairExtraDelay(src, dst int) sim.Time {
	if w.pairExtra == nil {
		return 0
	}
	return w.pairExtra[src*len(w.ranks)+dst]
}

// MinPairExtraDelay returns the smallest add-on over the given rank pairs
// (the lookahead-floor contribution of the topology). pairs is a list of
// (src, dst) index pairs; an empty list returns 0.
func (w *World) MinPairExtraDelay(pairs [][2]int) sim.Time {
	if len(pairs) == 0 {
		return 0
	}
	min := sim.MaxTime
	for _, p := range pairs {
		d := w.PairExtraDelay(p[0], p[1])
		if d < min {
			min = d
		}
	}
	return min
}

// MsgCount returns the number of messages sent, summed over nodes. Read it
// only after the run completes (cluster nodes update per-node counters
// while running).
func (w *World) MsgCount() int64 {
	var n int64
	for _, ns := range w.nodes {
		n += ns.msgCount
	}
	return n
}

// MsgBytes returns the payload bytes sent, summed over nodes.
func (w *World) MsgBytes() int64 {
	var n int64
	for _, ns := range w.nodes {
		n += ns.msgBytes
	}
	return n
}

// RemoteMsgCount returns the number of inter-node messages sent.
func (w *World) RemoteMsgCount() int64 {
	var n int64
	for _, ns := range w.nodes {
		n += ns.remoteMsgCount
	}
	return n
}

// NodeMsgStats returns one node's transport counters (messages, payload
// bytes, inter-node messages) — the per-node lines of cluster reports.
func (w *World) NodeMsgStats(node int) (count, bytes, remote int64) {
	ns := w.nodes[node]
	return ns.msgCount, ns.msgBytes, ns.remoteMsgCount
}

// NodePendingSends reports how many cross-node sends node has issued whose
// deferred route step has not yet fired. When zero, the node's earliest
// possible cross-node output is bounded below by its engine's
// NextEventAt() — the refinement the cluster calendar's node keys use. Must
// be called only while the node's engine is quiescent (between windows).
func (w *World) NodePendingSends(node int) int64 {
	return w.nodes[node].pendingRoutes
}

// post schedules the delivery of m to target after delay — the immediate,
// engine-side path (tests, future eager transports). Send instead defers
// the equivalent via drawDelivery + Env.DeferAfter so the post rides the
// rank's batched exchange. post is same-node only: it draws from and
// schedules on the target's own node.
func (w *World) post(target *Rank, m message, delay sim.Time) {
	d := target.ns.drawDelivery(target, m)
	target.ns.engine.After(delay, d.fire)
}

// drawDelivery takes a pooled delivery object, loads it with target and
// payload, and returns it; its pre-bound fire callback is then scheduled by
// the caller — immediately, or as a deferred step at the virtual instant
// the sender's overhead charge completes. The pool is per node, so cluster
// nodes never share a free list.
func (ns *nodeState) drawDelivery(target *Rank, m message) *delivery {
	d := ns.freeDeliv
	if d == nil {
		d = &delivery{}
		d.fire = func() {
			t, msg := d.target, d.m
			d.target = nil
			d.next = ns.freeDeliv
			ns.freeDeliv = d
			t.deliver(msg)
		}
	} else {
		ns.freeDeliv = d.next
		d.next = nil
	}
	d.target = target
	d.m = m
	return d
}

// drawRoute takes a pooled cross-node route request. Its pre-bound fire
// callback runs as a deferred zero-delay step on the sender's engine — at
// the virtual instant the send overhead charge has settled — where it
// stamps the arrival (now + transport delay) and hands the message to the
// router. The object returns to the pool before RouteMessage is called, so
// steady-state cross-node sends allocate nothing.
func (ns *nodeState) drawRoute(w *World, target *Rank, src, tag int, size int64, delay sim.Time) *routeReq {
	rr := ns.freeRoute
	if rr == nil {
		rr = &routeReq{}
		rr.fire = func() {
			w, t := rr.w, rr.target
			arrival := ns.engine.Now() + rr.delay
			src, tag, size := rr.src, rr.tag, rr.size
			rr.w, rr.target = nil, nil
			rr.next = ns.freeRoute
			ns.freeRoute = rr
			ns.pendingRoutes--
			w.router.RouteMessage(ns.id, t.ns.id, arrival, t, src, tag, size)
		}
	} else {
		ns.freeRoute = rr.next
		rr.next = nil
	}
	ns.pendingRoutes++
	rr.w = w
	rr.target = target
	rr.src = src
	rr.tag = tag
	rr.size = size
	rr.delay = delay
	return rr
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i (after Spawn it has a backing task).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Tasks returns the backing kernel tasks of all spawned ranks.
func (w *World) Tasks() []*sched.Task {
	out := make([]*sched.Task, 0, len(w.ranks))
	for _, r := range w.ranks {
		if r.task != nil {
			out = append(out, r.task)
		}
	}
	return out
}

// Spawn launches rank i with the given task spec and body on the kernel
// the rank is bound to, and watches the task there: the kernel's engine
// stops once every watched task has exited (sched.Kernel.Watch).
func (w *World) Spawn(i int, spec sched.TaskSpec, body func(*Rank)) *sched.Task {
	r := w.ranks[i]
	if r.task != nil {
		panic(fmt.Sprintf("mpi: rank %d spawned twice", i))
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("P%d", i+1) // the paper numbers processes P1..P4
	}
	task := r.kernel.AddProcess(spec, func(env *sched.Env) {
		r.env = env
		r.task = env.Task()
		body(r)
	})
	r.task = task
	r.kernel.Watch(task)
	return task
}

// bind places r on node's transport state and kernel k. A Send reads the
// target's binding at call time, so a rank must be bound before any peer
// can address it.
func (w *World) bind(r *Rank, k *sched.Kernel, node int) {
	ns := w.nodes[node]
	if k.Engine != ns.engine {
		panic(fmt.Sprintf("mpi: kernel does not run node %d's engine", node))
	}
	r.kernel = k
	r.node = node
	r.ns = ns
}

// Rank is one MPI process.
type Rank struct {
	world  *World
	id     int
	env    *sched.Env
	task   *sched.Task
	kernel *sched.Kernel
	node   int
	ns     *nodeState // transport state of the node this rank runs on

	// inbox is a ring of undelivered messages in arrival order.
	inbox  []message
	ibHead int
	ibLen  int

	// waiting holds the keys the rank is blocked on in Recv/Waitall
	// (empty when not blocked); pending is Waitall's scratch. Both reuse
	// their backing arrays across calls.
	waiting []msgKey
	pending []msgKey

	// Fused-wait state (Env.InvokeWait). The checks are pre-bound closures
	// over this state; the scalar fields parameterise the wait in flight:
	// waitSrc/waitTag for Recv, the sweep cursors for Waitall (sweepRead
	// scans r.pending, misses compact to sweepWrite — persisted so a sweep
	// interrupted by an overhead burn resumes at the same key), and the
	// barrier arrival marker.
	recvCheck    sched.WaitCheck
	waitallCheck sched.WaitCheck
	barrierCheck sched.WaitCheck
	waitSrc      int
	waitTag      int
	waitSize     int64
	sweepRead    int
	sweepWrite   int
	barrierIn    bool
	barrierGen0  int

	seq collSeq // per-collective invocation counters
}

// Node returns the cluster node the rank was placed on (0 for single-node
// worlds).
func (r *Rank) Node() int { return r.node }

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.world.ranks) }

// Task returns the backing kernel task.
func (r *Rank) Task() *sched.Task { return r.task }

// Env exposes the scheduling environment (Compute, SetScheduler, ...).
func (r *Rank) Env() *sched.Env { return r.env }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.env.Now() }

// Compute burns d of single-thread work. It stays a blocking exchange
// (merging any deferred sends queued before it) rather than deferring like
// Send: rank bodies draw from shared workload RNGs between computes, so
// letting the body run ahead of its burned work would reorder those draws
// across ranks and change the simulated timeline.
func (r *Rank) Compute(d sim.Time) { r.env.Compute(d) }

// Send performs an eager (buffered) send: the CPU-side overhead is charged
// and the message is delivered after the transport delay; the sender does
// not wait for a matching receive.
//
// The whole operation is deferred into the rank's batched exchange: the
// overhead charge and the delivery post are queued on the Env and ride the
// next flush (the next Compute, Recv, Waitall, Barrier or Now) in a single
// kernel rendezvous — back-to-back sends of an exchange phase cost one
// goroutine handoff instead of one each. The delivery is still posted at
// the exact virtual instant the overhead charge completes, so the timeline
// is indistinguishable from the unbatched one.
func (r *Rank) Send(dst, tag int, size int64) {
	if dst < 0 || dst >= r.Size() {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", dst))
	}
	if dst == r.id {
		panic("mpi: Send to self")
	}
	w := r.world
	if w.opts.SendOverhead > 0 {
		r.env.DeferCompute(w.opts.SendOverhead)
	}
	ns := r.ns
	ns.msgCount++
	ns.msgBytes += size
	target := w.ranks[dst]
	delay := w.opts.Latency + sim.Time(float64(size)*w.opts.ByteCost)
	if target.node != r.node {
		ns.remoteMsgCount++
		delay = w.opts.RemoteLatency + sim.Time(float64(size)*w.opts.RemoteByteCost)
	}
	delay += ns.extraDelay
	if w.pairExtra != nil {
		delay += w.pairExtra[r.id*len(w.ranks)+dst]
	}
	if target.ns != ns {
		// Cross-node: defer a zero-delay route step so the arrival is
		// stamped at the exact instant the overhead charge completes, then
		// let the router carry it to the target's engine.
		rr := ns.drawRoute(w, target, r.id, tag, size, delay)
		r.env.DeferAfter(0, rr.fire)
		return
	}
	d := ns.drawDelivery(target, message{src: r.id, tag: tag, size: size})
	r.env.DeferAfter(delay, d.fire)
}

// Isend is Send: eager buffered sends complete immediately, so the
// returned request is already complete. It exists so workload code can
// mirror the paper's mpi_isend call sites.
func (r *Rank) Isend(dst, tag int, size int64) Request {
	r.Send(dst, tag, size)
	return Request{done: true}
}

// ibAt returns the i-th buffered message (0 = oldest).
func (r *Rank) ibAt(i int) *message {
	return &r.inbox[(r.ibHead+i)&(len(r.inbox)-1)]
}

// ibPush appends m to the inbox ring, doubling it when full.
func (r *Rank) ibPush(m message) {
	if r.ibLen == len(r.inbox) {
		nb := make([]message, len(r.inbox)*2)
		for i := 0; i < r.ibLen; i++ {
			nb[i] = *r.ibAt(i)
		}
		r.inbox = nb
		r.ibHead = 0
	}
	*r.ibAt(r.ibLen) = m
	r.ibLen++
}

// ibRemove deletes the message at logical position i, shifting the
// shorter side of the ring (arrival order preserved).
func (r *Rank) ibRemove(i int) {
	if i < r.ibLen-i-1 {
		for j := i; j > 0; j-- {
			*r.ibAt(j) = *r.ibAt(j - 1)
		}
		r.ibHead = (r.ibHead + 1) & (len(r.inbox) - 1)
	} else {
		for j := i; j < r.ibLen-1; j++ {
			*r.ibAt(j) = *r.ibAt(j + 1)
		}
	}
	r.ibLen--
}

// Deliver injects a message into the rank's inbox, waking the rank if it is
// blocked on a matching receive. It is the router's target-side entry point
// and MUST run on the rank's own engine at the message's stamped arrival
// instant (internal/cluster schedules a pooled event there).
func (r *Rank) Deliver(src, tag int, size int64) {
	r.deliver(message{src: src, tag: tag, size: size})
}

// deliver runs on the engine side when a message arrives.
func (r *Rank) deliver(m message) {
	r.ibPush(m)
	if len(r.waiting) == 0 {
		return
	}
	for _, wk := range r.waiting {
		if wk.src == m.src && (wk.tag == AnyTag || wk.tag == m.tag) {
			r.waiting = r.waiting[:0]
			r.kernel.Wake(r.task)
			return
		}
	}
}

// take consumes a matching message from the inbox: the oldest message from
// src with the given tag, or — for AnyTag — the oldest message bearing the
// lowest tag buffered from src (the deterministic order the map-of-queues
// implementation used).
func (r *Rank) take(src, tag int) (message, bool) {
	if tag != AnyTag {
		for i := 0; i < r.ibLen; i++ {
			m := r.ibAt(i)
			if m.src == src && m.tag == tag {
				taken := *m
				r.ibRemove(i)
				return taken, true
			}
		}
		return message{}, false
	}
	best := -1
	for i := 0; i < r.ibLen; i++ {
		m := r.ibAt(i)
		if m.src == src && (best < 0 || m.tag < r.ibAt(best).tag) {
			best = i
		}
	}
	if best < 0 {
		return message{}, false
	}
	taken := *r.ibAt(best)
	r.ibRemove(best)
	return taken, true
}

// Recv blocks until a message from src with the given tag arrives and
// returns its size.
//
// The whole operation is a single fused rendezvous at most: a tagged probe
// may run before the rank's deferred batch settles (per-(src,tag) FIFO
// makes the choice time-independent — the same trick Waitall plays), so a
// buffered message is consumed with no kernel interaction at all; a miss
// hands the kernel one waitReq whose check re-inspects the inbox after the
// batch drains and after every wakeup, with the body parked in one Invoke
// throughout. An AnyTag probe must observe the post-flush inbox, so it
// settles the batch first. The receive overhead is deferred either way,
// riding the rank's next exchange (every later observation flushes first,
// so the timeline is the unbatched one).
func (r *Rank) Recv(src, tag int) int64 {
	if src < 0 || src >= r.Size() || src == r.id {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", src))
	}
	if tag == AnyTag {
		r.env.Flush()
	}
	if m, ok := r.take(src, tag); ok {
		if r.world.opts.RecvOverhead > 0 {
			r.env.DeferCompute(r.world.opts.RecvOverhead)
		}
		return m.size
	}
	r.waitSrc, r.waitTag = src, tag
	r.env.InvokeWait(r.recvCheck)
	if r.world.opts.RecvOverhead > 0 {
		r.env.DeferCompute(r.world.opts.RecvOverhead)
	}
	return r.waitSize
}

// recvCheckFn is Recv's engine-side wait predicate: consume the awaited
// message if it is here, otherwise (re-)register the waiting key and keep
// the task blocked. It runs with the rank's batch settled, exactly where
// the unfused Recv re-inspected the inbox after its flush or wakeup. The
// size travels through waitSize rather than the reply so the hot path
// never boxes an int64 into an interface.
func (r *Rank) recvCheckFn() (done bool, reply any) {
	if m, ok := r.take(r.waitSrc, r.waitTag); ok {
		r.waitSize = m.size
		return true, nil
	}
	r.waiting = append(r.waiting[:0], msgKey{r.waitSrc, r.waitTag})
	return false, nil
}

// Request is a handle for a non-blocking operation.
type Request struct {
	key  msgKey
	recv bool // an Irecv awaiting its message
	done bool
}

// Irecv posts a non-blocking receive. The message is only consumed by
// Wait/Waitall.
func (r *Rank) Irecv(src, tag int) Request {
	if src < 0 || src >= r.Size() || src == r.id {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	return Request{key: msgKey{src, tag}, recv: true}
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req Request) { r.Waitall([]Request{req}) }

// Waitall blocks until every request completes (mpi_waitall). Completed
// receives consume their messages.
//
// The whole wait is one fused rendezvous: the kernel drains the rank's
// deferred sends, then drives waitallCheckFn — which sweeps the pending
// keys, defers the receive-overhead charge of every hit, and yields to the
// pump whenever a burn must settle (before an AnyTag probe, or between
// sweeps) — blocking the task between arrivals without ever resuming the
// body. Messages arriving during a burn are found by the resumed sweep,
// exactly as they were when each charge was a separate rendezvous. The
// final sweep's charges ride the rank's next exchange.
func (r *Rank) Waitall(reqs []Request) {
	pending := r.pending[:0]
	for _, q := range reqs {
		if q.recv && !q.done {
			pending = append(pending, q.key)
		}
	}
	r.pending = pending
	if len(pending) == 0 {
		return
	}
	r.sweepRead, r.sweepWrite = 0, 0
	r.env.InvokeWait(r.waitallCheck)
}

// waitallCheckFn is Waitall's engine-side wait predicate. It resumes the
// in-flight sweep at sweepRead (misses compacted to sweepWrite): explicitly
// tagged probes may run with charges still deferred (per-key FIFO makes the
// choice time-independent), but an AnyTag probe picks among the tags
// buffered *now*, so the sweep parks — cursors intact — until every prior
// overhead burn lands. A completed sweep either finishes the wait, yields
// to burn the charges it consumed (more messages may arrive meanwhile, so
// the next invocation starts a fresh sweep), or registers the remaining
// keys and blocks.
func (r *Rank) waitallCheckFn() (done bool, reply any) {
	env := r.env
	ov := r.world.opts.RecvOverhead
	pending := r.pending
	for r.sweepRead < len(pending) {
		key := pending[r.sweepRead]
		if key.tag == AnyTag && env.Deferred() {
			return false, nil // burn first; the pump re-invokes the sweep here
		}
		r.sweepRead++
		if _, ok := r.take(key.src, key.tag); ok {
			if ov > 0 {
				env.DeferCompute(ov)
			}
		} else {
			pending[r.sweepWrite] = key
			r.sweepWrite++
		}
	}
	r.pending = pending[:r.sweepWrite]
	r.sweepRead, r.sweepWrite = 0, 0
	if len(r.pending) == 0 {
		return true, nil
	}
	if env.Deferred() {
		return false, nil // burn, then sweep again
	}
	r.waiting = append(r.waiting[:0], r.pending...)
	return false, nil // block until an arrival wakes the task
}

// Barrier blocks until every rank in the world has entered the barrier
// (mpi_barrier). The last arriving rank releases the others after the
// configured barrier latency and continues immediately.
//
// The arrival bookkeeping runs inside the fused wait's check, at the
// virtual instant the rank's deferred work has settled — the same instant
// the former flush-then-arrive sequence used — so the entire barrier costs
// each rank one rendezvous.
//
// Worlds spanning more than one node take a message fan-in/fan-out
// instead: the shared-counter release wakes tasks on other kernels
// directly, which is only sound when all ranks share one engine. The
// message barrier rides the ordinary routed Send/Recv paths, so it is
// correct — and deterministic — across node boundaries. A routed world on
// one node (a single-node run) keeps the shared counter.
func (r *Rank) Barrier() {
	if len(r.world.nodes) > 1 {
		r.clusterBarrier()
		return
	}
	r.env.InvokeWait(r.barrierCheck)
}

// clusterBarrier is a rank-0-rooted gather + release over point-to-point
// messages: every rank sends a zero-byte arrival to rank 0; rank 0 sleeps
// the configured barrier latency after the last arrival, then releases
// everyone. Per-rank generation counters in the tag keep back-to-back
// barriers from cross-matching.
func (r *Rank) clusterBarrier() {
	w := r.world
	tag := collBarrierTag + r.seq.barrier
	r.seq.barrier++
	if r.id == 0 {
		for src := 1; src < len(w.ranks); src++ {
			r.Recv(src, tag)
		}
		if w.opts.BarrierLatency > 0 {
			r.env.Sleep(w.opts.BarrierLatency)
		}
		for dst := 1; dst < len(w.ranks); dst++ {
			r.Send(dst, tag, 0)
		}
		return
	}
	r.Send(0, tag, 0)
	r.Recv(0, tag)
}

// barrierCheckFn is Barrier's engine-side wait predicate. The first
// invocation (barrierIn false) is the arrival: the last rank releases the
// waiters and completes immediately; everyone else records the generation
// it arrived in and blocks until the generation advances (re-blocking on
// spurious wakeups, as the unfused loop did). The waiter list is reset by
// length only — the next generation reuses its backing array.
func (r *Rank) barrierCheckFn() (done bool, reply any) {
	w := r.world
	if !r.barrierIn {
		w.barrierArrived++
		if w.barrierArrived == len(w.ranks) {
			// Last arrival: release everyone and continue immediately.
			w.barrierGen++
			w.barrierArrived = 0
			waiters := w.barrierWaiters
			w.barrierWaiters = w.barrierWaiters[:0]
			delay := w.opts.BarrierLatency
			for _, waiter := range waiters {
				waiter.kernel.WakeAfter(waiter.task, delay)
			}
			return true, nil
		}
		r.barrierIn = true
		r.barrierGen0 = w.barrierGen
		w.barrierWaiters = append(w.barrierWaiters, r)
		return false, nil
	}
	if w.barrierGen != r.barrierGen0 {
		r.barrierIn = false
		return true, nil
	}
	return false, nil
}
