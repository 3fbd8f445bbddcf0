// Package mpi is a discrete-event MPI simulator: rank processes run as
// coroutines on the des kernel, exchange messages priced by netmodel, and
// synchronize through collectives. It stands in for the IBM Parallel
// Environment MPI the paper profiles.
//
// Semantics implemented:
//
//   - Non-blocking point-to-point (Isend/Irecv/Waitall) with tag matching
//     in post order, eager and rendezvous protocols, and per-rank NIC
//     serialization — so several in-flight messages cost
//     lib + x·T_inFlight, the paper's Eq. 1 with x > 1.
//   - Blocking point-to-point (Send/Recv/Sendrecv) built on the same
//     machinery.
//   - Collectives (Bcast/Reduce/Allreduce/Allgather/Alltoall/Barrier)
//     with synchronizing semantics: all ranks enter, the operation costs
//     netmodel's algorithm price from the last arrival, all leave
//     together. This is why blocking collectives show near-zero WaitTime
//     in profiles, matching the paper's observation.
//
// An Observer hook receives every compute advance and routine completion;
// internal/mpiprof builds the paper's MPI profile from it.
package mpi

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/des"
	"repro/internal/netmodel"
	"repro/internal/units"
)

// Routine names the MPI calls the simulator supports, using the paper's
// vocabulary.
type Routine string

// Supported routines.
const (
	RoutineIsend     Routine = "MPI_Isend"
	RoutineIrecv     Routine = "MPI_Irecv"
	RoutineWaitall   Routine = "MPI_Waitall"
	RoutineSend      Routine = "MPI_Send"
	RoutineRecv      Routine = "MPI_Recv"
	RoutineSendrecv  Routine = "MPI_Sendrecv"
	RoutineBcast     Routine = "MPI_Bcast"
	RoutineReduce    Routine = "MPI_Reduce"
	RoutineAllreduce Routine = "MPI_Allreduce"
	RoutineAllgather Routine = "MPI_Allgather"
	RoutineAlltoall  Routine = "MPI_Alltoall"
	RoutineBarrier   Routine = "MPI_Barrier"
)

// Class buckets routines the way the paper's figures do.
type Class string

// Routine classes (the paper's figure legend).
const (
	ClassP2PNB      Class = "P2P-NB"      // non-blocking point-to-point
	ClassP2PB       Class = "P2P-B"       // blocking point-to-point
	ClassCollective Class = "COLLECTIVES" // collectives
)

// ClassOf maps a routine to its class.
func ClassOf(r Routine) Class {
	switch r {
	case RoutineIsend, RoutineIrecv, RoutineWaitall:
		return ClassP2PNB
	case RoutineSend, RoutineRecv, RoutineSendrecv:
		return ClassP2PB
	default:
		return ClassCollective
	}
}

// RoutineEvent is one completed MPI call, as reported to an Observer.
type RoutineEvent struct {
	Routine Routine
	// Bytes is the per-message size (for Waitall: the mean size of the
	// requests waited on).
	Bytes units.Bytes
	// Count is how many messages the call involved (1 except Waitall).
	Count int
	// Elapsed is the caller's wall time inside the routine.
	Elapsed units.Seconds
	// Peers are the remote ranks of the messages involved (point-to-point
	// only). The profile uses them to model the communication pattern —
	// which peer distances the application talks to — so a projection can
	// split intra-node from inter-node traffic under any node geometry.
	// The slice is backed by per-rank scratch: it is valid only for the
	// duration of the OnRoutine call and must not be retained.
	Peers []int
}

// Observer receives simulation activity; implementations must be cheap and
// must not block. Event slices (RoutineEvent.Peers) are reused between
// calls and must not be retained past the callback.
type Observer interface {
	// OnCompute reports dt of application compute on a rank.
	OnCompute(rank int, dt units.Seconds)
	// OnRoutine reports a completed MPI call on a rank.
	OnRoutine(rank int, ev RoutineEvent)
}

// matchKey identifies a point-to-point matching queue.
type matchKey struct {
	src, dst, tag int
}

// pendingSend is a posted-but-unmatched send.
type pendingSend struct {
	size    units.Bytes
	post    units.Seconds // sender ready time (after overhead)
	arrival units.Seconds // eager only: when the payload lands at dst
	eager   bool
	req     *Request
	srcRank int
	dstRank int
}

// pendingRecv is a posted-but-unmatched receive.
type pendingRecv struct {
	post units.Seconds
	req  *Request
}

// sendQueue is a FIFO of unmatched sends for one matchKey. Pops advance a
// head index instead of reslicing, and a drained queue rewinds to reuse its
// backing array. Benchmark loops mint a fresh tag (hence a fresh matchKey)
// per message, so drained queues are recycled through a World freelist
// rather than left under their key — the map churns keys but the queue
// structs and their backing arrays are reused, and the steady state of a
// million-message loop allocates nothing.
type sendQueue struct {
	items []*pendingSend
	head  int
}

func (q *sendQueue) push(ps *pendingSend) { q.items = append(q.items, ps) }

func (q *sendQueue) pop() *pendingSend {
	if q.head == len(q.items) {
		return nil
	}
	ps := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return ps
}

// recvQueue is sendQueue for unmatched receives.
type recvQueue struct {
	items []*pendingRecv
	head  int
}

func (q *recvQueue) push(rq *pendingRecv) { q.items = append(q.items, rq) }

func (q *recvQueue) pop() *pendingRecv {
	if q.head == len(q.items) {
		return nil
	}
	rq := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return rq
}

// Request is a non-blocking operation handle.
type Request struct {
	done   *des.Signal
	size   units.Bytes
	peer   int
	isSend bool
}

// collOp tracks one in-progress collective.
type collOp struct {
	routine Routine
	size    units.Bytes
	arrived int
	last    units.Seconds
	done    *des.Signal
}

// World is one simulated MPI job on one machine.
type World struct {
	Machine *arch.Machine
	Model   *netmodel.Model

	kernel *des.Kernel
	size   int

	// NICs belong to nodes, not ranks: every rank on a node shares its
	// adapters, so inter-node traffic serializes per node — the dominant
	// contention effect when 16 tasks share one HPS/InfiniBand adapter.
	// Intra-node (shared-memory) messages bypass the NIC.
	txFree  []units.Seconds // per-node NIC injection availability
	rxFree  []units.Seconds // per-node NIC reception availability
	shmFree []units.Seconds // per-node shared-memory transport availability

	sends map[matchKey]*sendQueue
	recvs map[matchKey]*recvQueue

	colls   map[int]*collOp // collective sequence → state
	signals int             // unique signal naming

	// Slab arenas for the per-message bookkeeping records. A simulated
	// job mints one Request and one pending record per message — tens of
	// millions per characterisation — so they are carved out of chunked
	// arenas instead of allocated individually: one allocation per
	// arenaChunk records, all released together when the World dies.
	reqSlab  []Request
	sendSlab []pendingSend
	recvSlab []pendingRecv

	// Freelists of drained match queues (see sendQueue).
	sendQFree []*sendQueue
	recvQFree []*recvQueue

	obs Observer
}

// arenaChunk is how many records one arena slab holds.
const arenaChunk = 128

// peerScratchSeed is the per-rank starting capacity (in peers) of the
// scratch slice backing RoutineEvent.Peers; Waitall grows it only when a
// single call waits on more requests than this.
const peerScratchSeed = 32

// newRequest carves a Request from the world's arena.
func (w *World) newRequest() *Request {
	if len(w.reqSlab) == 0 {
		w.reqSlab = make([]Request, arenaChunk)
	}
	r := &w.reqSlab[0]
	w.reqSlab = w.reqSlab[1:]
	return r
}

// newPendingSend carves a pendingSend from the world's arena.
func (w *World) newPendingSend() *pendingSend {
	if len(w.sendSlab) == 0 {
		w.sendSlab = make([]pendingSend, arenaChunk)
	}
	p := &w.sendSlab[0]
	w.sendSlab = w.sendSlab[1:]
	return p
}

// newPendingRecv carves a pendingRecv from the world's arena.
func (w *World) newPendingRecv() *pendingRecv {
	if len(w.recvSlab) == 0 {
		w.recvSlab = make([]pendingRecv, arenaChunk)
	}
	p := &w.recvSlab[0]
	w.recvSlab = w.recvSlab[1:]
	return p
}

// NewWorld creates a job of size ranks on machine m with one task per
// core, densely packed onto nodes.
func NewWorld(m *arch.Machine, size int) (*World, error) {
	return NewWorldHybrid(m, size, 1)
}

// NewWorldHybrid creates a hybrid MPI/OpenMP job: every rank owns
// threadsPerRank cores, so fewer ranks share each node (and its NIC).
// This implements the paper's stated future-work direction.
func NewWorldHybrid(m *arch.Machine, size, threadsPerRank int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d < 1", size)
	}
	if threadsPerRank < 1 {
		return nil, fmt.Errorf("mpi: threads per rank %d < 1", threadsPerRank)
	}
	if threadsPerRank > m.CoresPerNode {
		return nil, fmt.Errorf("mpi: %d threads exceed %s's %d cores per node",
			threadsPerRank, m.Name, m.CoresPerNode)
	}
	if size*threadsPerRank > m.TotalCores {
		return nil, fmt.Errorf("mpi: %d ranks × %d threads exceed %s's %d cores",
			size, threadsPerRank, m.Name, m.TotalCores)
	}
	model := netmodel.NewPlaced(m, m.CoresPerNode/threadsPerRank)
	nodes := (size + model.RanksPerNode - 1) / model.RanksPerNode
	return &World{
		Machine: m,
		Model:   model,
		kernel:  des.NewKernel(),
		size:    size,
		txFree:  make([]units.Seconds, nodes),
		rxFree:  make([]units.Seconds, nodes),
		shmFree: make([]units.Seconds, nodes),
		sends:   map[matchKey]*sendQueue{},
		recvs:   map[matchKey]*recvQueue{},
		colls:   map[int]*collOp{},
	}, nil
}

// UsePool runs the world's ranks on coroutines parked in pl and parks them
// there when the job ends, so a sweep of many short jobs starts each
// coroutine once; see des.Pool. Must be called before Run.
func (w *World) UsePool(pl *des.Pool) { w.kernel.UsePool(pl) }

// SetObserver installs the profiling hook. Must be called before Run.
func (w *World) SetObserver(o Observer) { w.obs = o }

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes program on every rank and drives the simulation to
// completion, returning the job's makespan (the virtual time when the last
// rank finishes).
func (w *World) Run(program func(r *Rank)) (units.Seconds, error) {
	// One allocation for all rank handles and one for all their peer
	// scratches; process names render lazily via SpawnKind.
	ranks := make([]Rank, w.size)
	peerSlab := make([]int, w.size*peerScratchSeed)
	for i := 0; i < w.size; i++ {
		rank := &ranks[i]
		rank.w = w
		rank.id = i
		rank.peerScratch = peerSlab[i*peerScratchSeed : i*peerScratchSeed : (i+1)*peerScratchSeed]
		w.kernel.SpawnKind("rank", i, func(p *des.Proc) {
			rank.proc = p
			program(rank)
		})
	}
	if err := w.kernel.Run(); err != nil {
		return 0, err
	}
	return w.kernel.Now(), nil
}

// newSignal mints a uniquely named signal. The name is formatted lazily
// by the kernel — only deadlock reports ever render it.
func (w *World) newSignal(kind string) *des.Signal {
	w.signals++
	return w.kernel.NewSignalKind(kind, w.signals)
}

// Rank is the per-process MPI handle.
type Rank struct {
	w    *World
	id   int
	proc *des.Proc

	collSeq int

	// peerScratch backs RoutineEvent.Peers for this rank's observer
	// events; observers may not retain it (see Observer).
	peerScratch []int
}

// ID returns this rank's index.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.size }

// Now returns the current virtual time.
func (r *Rank) Now() units.Seconds { return r.proc.Now() }

// Compute burns dt of application compute time.
func (r *Rank) Compute(dt units.Seconds) {
	if dt < 0 {
		dt = 0
	}
	r.proc.Advance(dt)
	if r.w.obs != nil {
		r.w.obs.OnCompute(r.id, dt)
	}
}

// report sends a routine event to the observer, if any.
func (r *Rank) report(rt Routine, bytes units.Bytes, count int, elapsed units.Seconds) {
	if r.w.obs != nil {
		r.w.obs.OnRoutine(r.id, RoutineEvent{Routine: rt, Bytes: bytes, Count: count, Elapsed: elapsed})
	}
}

// reportP2P is report with the peer rank attached. The peers slice is the
// rank's scratch — valid only inside the observer call.
func (r *Rank) reportP2P(rt Routine, bytes units.Bytes, count int, elapsed units.Seconds, peer int) {
	if r.w.obs != nil {
		r.peerScratch = append(r.peerScratch[:0], peer)
		r.w.obs.OnRoutine(r.id, RoutineEvent{Routine: rt, Bytes: bytes, Count: count, Elapsed: elapsed, Peers: r.peerScratch})
	}
}

// --- point-to-point ------------------------------------------------------

// launchTransfer prices and schedules the wire movement of a matched (or
// eager) message, returning its arrival time at the destination. ready is
// when the payload may start injecting (sender ready; for rendezvous also
// after the handshake). Inter-node messages serialize on the shared
// per-node NICs at both ends; intra-node messages go through shared
// memory and contend only with themselves.
func (w *World) launchTransfer(src, dst int, size units.Bytes, ready units.Seconds) (arrival, injected units.Seconds) {
	cost := w.Model.P2P(src, dst, size)
	if w.Model.Intra(src, dst) {
		// Shared-memory transport: the node's memory bus is one
		// resource; concurrent intra-node copies serialize on it.
		node := w.Model.NodeOf(src)
		start := ready
		if w.shmFree[node] > start {
			start = w.shmFree[node]
		}
		injected = start + cost.Serialize
		w.shmFree[node] = injected
		return injected + cost.Latency, injected
	}
	srcNode, dstNode := w.Model.NodeOf(src), w.Model.NodeOf(dst)
	txStart := ready
	if w.txFree[srcNode] > txStart {
		txStart = w.txFree[srcNode]
	}
	txEnd := txStart + cost.Serialize
	w.txFree[srcNode] = txEnd
	arrival = txEnd + cost.Latency
	if w.rxFree[dstNode] > arrival {
		arrival = w.rxFree[dstNode]
	}
	w.rxFree[dstNode] = arrival + cost.Serialize
	return arrival, txEnd
}

// fireAt fires sig at absolute virtual time t (or immediately if past).
func (w *World) fireAt(sig *des.Signal, t units.Seconds) {
	w.kernel.FireAt(sig, t-w.kernel.Now())
}

// Isend posts a non-blocking send of size bytes to dst with tag and
// returns its request.
func (r *Rank) Isend(dst int, size units.Bytes, tag int) *Request {
	return r.isend(dst, size, tag, true)
}

// isend implements Isend; report=false suppresses the observer event when
// the call runs inside a blocking wrapper that reports under its own name.
func (r *Rank) isend(dst int, size units.Bytes, tag int, report bool) *Request {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	w := r.w
	start := r.Now()
	cost := w.Model.P2P(r.id, dst, size)
	r.proc.Advance(cost.LibOverhead)
	req := w.newRequest()
	*req = Request{done: w.newSignal("send"), size: size, peer: dst, isSend: true}

	key := matchKey{src: r.id, dst: dst, tag: tag}
	if cost.Rendezvous {
		ps := w.newPendingSend()
		*ps = pendingSend{size: size, post: r.Now(), eager: false, req: req, srcRank: r.id, dstRank: dst}
		if rq := w.popRecv(key); rq != nil {
			w.completeRendezvous(ps, rq, key)
		} else {
			w.pushSend(key, ps)
		}
	} else {
		// Eager: the payload flies now; the send completes once the
		// NIC has swallowed it (independent of the receiver).
		arrival, injected := w.launchTransfer(r.id, dst, size, r.Now())
		w.fireAt(req.done, injected)
		if rq := w.popRecv(key); rq != nil {
			w.fireAt(rq.req.done, arrival)
		} else {
			ps := w.newPendingSend()
			*ps = pendingSend{size: size, post: r.Now(), arrival: arrival, eager: true, req: req, srcRank: r.id, dstRank: dst}
			w.pushSend(key, ps)
		}
	}
	if report {
		r.reportP2P(RoutineIsend, size, 1, r.Now()-start, dst)
	}
	return req
}

// Irecv posts a non-blocking receive of size bytes from src with tag.
func (r *Rank) Irecv(src int, size units.Bytes, tag int) *Request {
	return r.irecv(src, size, tag, true)
}

// irecv implements Irecv; see isend for the report flag.
func (r *Rank) irecv(src int, size units.Bytes, tag int, report bool) *Request {
	if src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("mpi: Irecv from invalid rank %d", src))
	}
	w := r.w
	start := r.Now()
	cost := w.Model.P2P(src, r.id, size)
	r.proc.Advance(cost.LibOverhead)
	req := w.newRequest()
	*req = Request{done: w.newSignal("recv"), size: size, peer: src}

	key := matchKey{src: src, dst: r.id, tag: tag}
	if ps := w.popSend(key); ps != nil {
		if ps.eager {
			done := ps.arrival
			if t := r.Now(); t > done {
				done = t
			}
			w.fireAt(req.done, done)
		} else {
			matched := pendingRecv{post: r.Now(), req: req}
			w.completeRendezvous(ps, &matched, key)
		}
	} else {
		rq := w.newPendingRecv()
		*rq = pendingRecv{post: r.Now(), req: req}
		w.pushRecv(key, rq)
	}
	if report {
		r.reportP2P(RoutineIrecv, size, 1, r.Now()-start, src)
	}
	return req
}

// completeRendezvous schedules the handshake + transfer for a matched
// rendezvous pair and fires both requests at arrival.
func (w *World) completeRendezvous(ps *pendingSend, rq *pendingRecv, key matchKey) {
	cost := w.Model.P2P(key.src, key.dst, ps.size)
	both := ps.post
	if rq.post > both {
		both = rq.post
	}
	ready := both + cost.Handshake
	arrival, _ := w.launchTransfer(key.src, key.dst, ps.size, ready)
	w.fireAt(ps.req.done, arrival)
	w.fireAt(rq.req.done, arrival)
}

// pushSend enqueues an unmatched send for key.
func (w *World) pushSend(key matchKey, ps *pendingSend) {
	q := w.sends[key]
	if q == nil {
		if n := len(w.sendQFree); n > 0 {
			q = w.sendQFree[n-1]
			w.sendQFree = w.sendQFree[:n-1]
		} else {
			q = &sendQueue{items: make([]*pendingSend, 0, 4)}
		}
		w.sends[key] = q
	}
	q.push(ps)
}

// pushRecv enqueues an unmatched recv for key.
func (w *World) pushRecv(key matchKey, rq *pendingRecv) {
	q := w.recvs[key]
	if q == nil {
		if n := len(w.recvQFree); n > 0 {
			q = w.recvQFree[n-1]
			w.recvQFree = w.recvQFree[:n-1]
		} else {
			q = &recvQueue{items: make([]*pendingRecv, 0, 4)}
		}
		w.recvs[key] = q
	}
	q.push(rq)
}

// popSend removes and returns the oldest unmatched send for key, or nil.
// A drained queue goes back on the freelist and its key is released.
func (w *World) popSend(key matchKey) *pendingSend {
	q := w.sends[key]
	if q == nil {
		return nil
	}
	ps := q.pop()
	if ps != nil && len(q.items) == 0 {
		delete(w.sends, key)
		w.sendQFree = append(w.sendQFree, q)
	}
	return ps
}

// popRecv removes and returns the oldest unmatched recv for key, or nil.
func (w *World) popRecv(key matchKey) *pendingRecv {
	q := w.recvs[key]
	if q == nil {
		return nil
	}
	rq := q.pop()
	if rq != nil && len(q.items) == 0 {
		delete(w.recvs, key)
		w.recvQFree = append(w.recvQFree, q)
	}
	return rq
}

// Waitall blocks until every request completes.
func (r *Rank) Waitall(reqs ...*Request) {
	start := r.Now()
	var bytes units.Bytes
	peers := r.peerScratch[:0]
	for _, rq := range reqs {
		r.proc.WaitSignal(rq.done)
		bytes += rq.size
		peers = append(peers, rq.peer)
	}
	r.peerScratch = peers
	mean := units.Bytes(0)
	if len(reqs) > 0 {
		mean = bytes / units.Bytes(len(reqs))
	}
	if r.w.obs != nil {
		r.w.obs.OnRoutine(r.id, RoutineEvent{Routine: RoutineWaitall, Bytes: mean, Count: len(reqs), Elapsed: r.Now() - start, Peers: peers})
	}
}

// Wait blocks until one request completes (Waitall of one, reported the
// same way).
func (r *Rank) Wait(rq *Request) { r.Waitall(rq) }

// Send is a blocking standard-mode send.
func (r *Rank) Send(dst int, size units.Bytes, tag int) {
	start := r.Now()
	req := r.isend(dst, size, tag, false)
	r.proc.WaitSignal(req.done)
	r.reportP2P(RoutineSend, size, 1, r.Now()-start, dst)
}

// Recv is a blocking receive.
func (r *Rank) Recv(src int, size units.Bytes, tag int) {
	start := r.Now()
	req := r.irecv(src, size, tag, false)
	r.proc.WaitSignal(req.done)
	r.reportP2P(RoutineRecv, size, 1, r.Now()-start, src)
}

// Sendrecv is a combined blocking exchange.
func (r *Rank) Sendrecv(dst int, sendSize units.Bytes, src int, recvSize units.Bytes, tag int) {
	start := r.Now()
	sreq := r.isend(dst, sendSize, tag, false)
	rreq := r.irecv(src, recvSize, tag, false)
	r.proc.WaitSignal(sreq.done)
	r.proc.WaitSignal(rreq.done)
	if r.w.obs != nil {
		r.peerScratch = append(r.peerScratch[:0], dst, src)
		r.w.obs.OnRoutine(r.id, RoutineEvent{Routine: RoutineSendrecv, Bytes: sendSize, Count: 2, Elapsed: r.Now() - start, Peers: r.peerScratch})
	}
}

// --- collectives ----------------------------------------------------------

// collective implements the synchronizing collective template: enter, wait
// for everyone, pay the algorithm cost from the last arrival, leave
// together.
func (r *Rank) collective(rt Routine, size units.Bytes, cost units.Seconds) {
	w := r.w
	start := r.Now()
	seq := r.collSeq
	r.collSeq++

	op, ok := w.colls[seq]
	if !ok {
		op = &collOp{routine: rt, size: size, done: w.newSignal("coll")}
		w.colls[seq] = op
	}
	if op.routine != rt {
		panic(fmt.Sprintf("mpi: collective mismatch at seq %d: rank %d called %s, others %s",
			seq, r.id, rt, op.routine))
	}
	op.arrived++
	if t := r.Now(); t > op.last {
		op.last = t
	}
	if op.arrived == w.size {
		finish := op.last + cost
		delete(w.colls, seq)
		w.fireAt(op.done, finish)
	}
	r.proc.WaitSignal(op.done)
	r.report(rt, size, 1, r.Now()-start)
}

// Bcast broadcasts size bytes from root to all ranks.
func (r *Rank) Bcast(root int, size units.Bytes) {
	_ = root // synchronizing model: root identity does not change the cost
	r.collective(RoutineBcast, size, r.w.Model.Bcast(size, r.w.size))
}

// Reduce combines size bytes from all ranks at root.
func (r *Rank) Reduce(root int, size units.Bytes) {
	_ = root
	r.collective(RoutineReduce, size, r.w.Model.Reduce(size, r.w.size))
}

// Allreduce combines and redistributes size bytes.
func (r *Rank) Allreduce(size units.Bytes) {
	r.collective(RoutineAllreduce, size, r.w.Model.Allreduce(size, r.w.size))
}

// Allgather gathers size bytes from every rank to all ranks.
func (r *Rank) Allgather(size units.Bytes) {
	r.collective(RoutineAllgather, size, r.w.Model.Allgather(size, r.w.size))
}

// Alltoall exchanges size bytes between every rank pair.
func (r *Rank) Alltoall(size units.Bytes) {
	r.collective(RoutineAlltoall, size, r.w.Model.Alltoall(size, r.w.size))
}

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() {
	r.collective(RoutineBarrier, 0, r.w.Model.Barrier(r.w.size))
}
