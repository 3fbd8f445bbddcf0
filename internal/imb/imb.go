// Package imb implements the Intel MPI Benchmarks whose results SWAPP's
// projection reads — PingPong, Sendrecv and the collective benchmarks —
// plus the paper's custom multi-Sendrecv benchmark (§2.2), on top of the
// discrete-event MPI simulator.
//
// Its product is the Eq. 3 target-machine parameter table
//
//	P_Cj(m_i, S_k)
//
// — the time of MPI routine m_i at message size S_k and core count C_j —
// which SWAPP's communication projection maps application profiles onto.
// multi-Sendrecv additionally parameterises the non-blocking path per
// Eq. 1: issuing x successions of Isend/Irecv followed by a Waitall and
// fitting T(x) = T_LibraryOverhead + x·T_inFlight over x.
package imb

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/des"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/units"
)

// DefaultSizes is the power-of-two message grid the suite sweeps, 4 B to
// 1 MiB.
func DefaultSizes() []units.Bytes { return units.Pow2Sizes(4, 1*units.MiB) }

// iterations per (benchmark, size) measurement. The simulator is
// deterministic, so a handful suffices to average out pipeline fill.
const iterations = 4

// multiXs are the in-flight depths multi-Sendrecv sweeps for the Eq. 1 fit.
var multiXs = []int{1, 2, 4, 8}

// NBFit is one Eq. 1 parameterisation of the non-blocking
// Isend/Irecv/Waitall path, fitted from multi-Sendrecv:
// T(x, S) = Overhead + x·InFlight[S].
type NBFit struct {
	Overhead units.Seconds
	InFlight map[units.Bytes]units.Seconds
}

// Table is the benchmark output for one (machine, core count): the Eq. 3
// parameters plus the Eq. 1 non-blocking decomposition. Following IMB's
// cluster detection, the non-blocking path is parameterised twice: for
// pairs sharing a node (intra) and pairs on different nodes (inter).
type Table struct {
	Machine string
	Ranks   int
	Sizes   []units.Bytes

	// PerOp[routine][size] is the measured per-operation time.
	PerOp map[mpi.Routine]map[units.Bytes]units.Seconds

	// NBIntra and NBInter are the Eq. 1 fits for same-node and
	// cross-node partners. On single-node jobs both hold the intra fit.
	NBIntra NBFit
	NBInter NBFit
}

// Time looks up (log-log interpolating over the size grid) the per-op time
// of a routine at an arbitrary message size.
func (t *Table) Time(routine mpi.Routine, size units.Bytes) (units.Seconds, error) {
	m, ok := t.PerOp[routine]
	if !ok {
		return 0, fmt.Errorf("imb: routine %s not measured on %s/%d", routine, t.Machine, t.Ranks)
	}
	return interpSize(t.Sizes, m, size), nil
}

// InFlightIntra interpolates the intra-node Eq. 1 per-message in-flight
// time at a size.
func (t *Table) InFlightIntra(size units.Bytes) units.Seconds {
	return interpSize(t.Sizes, t.NBIntra.InFlight, size)
}

// InFlightInter interpolates the inter-node Eq. 1 per-message in-flight
// time at a size.
func (t *Table) InFlightInter(size units.Bytes) units.Seconds {
	return interpSize(t.Sizes, t.NBInter.InFlight, size)
}

// NBOverhead is the per-call software overhead of the non-blocking path
// (Eq. 1's T_LibraryOverhead) — a software cost, taken from the intra fit.
func (t *Table) NBOverhead() units.Seconds { return t.NBIntra.Overhead }

// TransferNB prices a non-blocking exchange per Eq. 1, with xIntra
// same-node and xInter cross-node message successions of the given size.
func (t *Table) TransferNB(size units.Bytes, xIntra, xInter float64) units.Seconds {
	return t.NBOverhead() + xIntra*t.InFlightIntra(size) + xInter*t.InFlightInter(size)
}

// interpSize log-log interpolates a size-keyed table. Non-positive samples
// are skipped rather than substituted: log-log needs positive values, and a
// placeholder like 1e-12 would bend the fitted curve through an absurd
// point, poisoning every query between the zero sample's neighbours. The
// persist decoders already reject non-positive timings on load, but tables
// built directly by Run (or by hand in tests) bypass that validation.
func interpSize(grid []units.Bytes, m map[units.Bytes]units.Seconds, size units.Bytes) units.Seconds {
	xs := make([]float64, 0, len(grid))
	ys := make([]float64, 0, len(grid))
	for _, s := range grid {
		v, ok := m[s]
		if !ok || v <= 0 {
			continue
		}
		xs = append(xs, float64(s))
		ys = append(ys, v)
	}
	if len(xs) == 0 {
		return 0
	}
	if size < 1 {
		size = 1
	}
	return stats.LogLogInterp(xs, ys, float64(size))
}

// gridGap reports whether a lookup at size in the size-keyed table m had
// to bridge a hole in the declared grid. With every declared size covered
// by a positive sample the answer is always false — the clean path —
// including queries outside the grid range, which clamp to the edge sample
// by design. With holes, a query is degraded when either declared
// bracketing neighbour (or the relevant edge) is uncovered, because the
// interpolation then stretched over missing measurements.
func gridGap(grid []units.Bytes, m map[units.Bytes]units.Seconds, size units.Bytes) bool {
	if len(grid) == 0 || len(m) == 0 {
		return false
	}
	covered := make([]bool, len(grid))
	all := true
	any := false
	for i, s := range grid {
		if v, ok := m[s]; ok && v > 0 {
			covered[i] = true
			any = true
		} else {
			all = false
		}
	}
	if all {
		return false
	}
	if !any {
		return true
	}
	if size <= grid[0] {
		return !covered[0]
	}
	if size >= grid[len(grid)-1] {
		return !covered[len(grid)-1]
	}
	// sort.Search finds the smallest declared size >= size.
	hi := sort.Search(len(grid), func(i int) bool { return grid[i] >= size })
	if grid[hi] == size {
		return !covered[hi]
	}
	return !covered[hi-1] || !covered[hi]
}

// CoverageGap reports whether a Time lookup for routine at size had to
// extrapolate across a hole in the declared size grid (a degraded answer
// worth a quality defect). A routine absent from the table is not a grid
// gap — that is a missing-routine defect, recorded elsewhere. Routines
// measured off-grid (Barrier, at size 0) never report gaps.
func (t *Table) CoverageGap(routine mpi.Routine, size units.Bytes) bool {
	m, ok := t.PerOp[routine]
	if !ok {
		return false
	}
	if routine == mpi.RoutineBarrier {
		return false
	}
	return gridGap(t.Sizes, m, size)
}

// NBGap reports whether the Eq. 1 non-blocking in-flight lookups at size
// bridge a hole in either the intra- or inter-node fit's size grid.
func (t *Table) NBGap(size units.Bytes) bool {
	return gridGap(t.Sizes, t.NBIntra.InFlight, size) || gridGap(t.Sizes, t.NBInter.InFlight, size)
}

// TruncatedAbove returns a deep copy of the table with every sample at a
// message size strictly greater than max removed, while keeping the
// declared Sizes grid intact — the shape of a sweep that was cut short,
// used by fault injection and partial-data tests. Lookups above max then
// clamp to the largest surviving sample and CoverageGap reports them.
func (t *Table) TruncatedAbove(max units.Bytes) *Table {
	cp := &Table{
		Machine: t.Machine,
		Ranks:   t.Ranks,
		Sizes:   append([]units.Bytes(nil), t.Sizes...),
		PerOp:   map[mpi.Routine]map[units.Bytes]units.Seconds{},
		NBIntra: NBFit{Overhead: t.NBIntra.Overhead, InFlight: map[units.Bytes]units.Seconds{}},
		NBInter: NBFit{Overhead: t.NBInter.Overhead, InFlight: map[units.Bytes]units.Seconds{}},
	}
	for rt, m := range t.PerOp {
		nm := map[units.Bytes]units.Seconds{}
		for s, v := range m {
			if s <= max {
				nm[s] = v
			}
		}
		cp.PerOp[rt] = nm
	}
	for s, v := range t.NBIntra.InFlight {
		if s <= max {
			cp.NBIntra.InFlight[s] = v
		}
	}
	for s, v := range t.NBInter.InFlight {
		if s <= max {
			cp.NBInter.InFlight[s] = v
		}
	}
	return cp
}

// Routines lists the measured routines in deterministic order.
func (t *Table) Routines() []mpi.Routine {
	out := make([]mpi.Routine, 0, len(t.PerOp))
	for rt := range t.PerOp {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Run executes the full suite on machine m with the given rank count and
// size grid (nil for DefaultSizes) and returns the parameter table.
func Run(m *arch.Machine, ranks int, sizes []units.Bytes) (*Table, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("imb: need at least 2 ranks, got %d", ranks)
	}
	if sizes == nil {
		sizes = DefaultSizes()
	}
	t := &Table{
		Machine: m.Name,
		Ranks:   ranks,
		Sizes:   sizes,
		PerOp:   map[mpi.Routine]map[units.Bytes]units.Seconds{},
		NBIntra: NBFit{InFlight: map[units.Bytes]units.Seconds{}},
		NBInter: NBFit{InFlight: map[units.Bytes]units.Seconds{}},
	}
	multiNode := m.NodesFor(ranks) > 1
	// Every measure below runs a fresh world of the same ranks; the pool
	// lets them share one set of rank coroutines.
	var pool des.Pool
	defer pool.Close()

	put := func(rt mpi.Routine, size units.Bytes, v units.Seconds) {
		if t.PerOp[rt] == nil {
			t.PerOp[rt] = map[units.Bytes]units.Seconds{}
		}
		t.PerOp[rt][size] = v
	}

	for _, size := range sizes {
		size := size
		// --- blocking point-to-point: PingPong (half round trip). ---
		pp, err := measure(m, ranks, &pool, func(r *mpi.Rank) {
			partner := pairDistant(r.ID(), ranks)
			if partner < 0 {
				return
			}
			for i := 0; i < iterations; i++ {
				if r.ID() < partner {
					r.Send(partner, size, i)
					r.Recv(partner, size, i)
				} else {
					r.Recv(partner, size, i)
					r.Send(partner, size, i)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		put(mpi.RoutineSend, size, pp/(2*iterations))
		put(mpi.RoutineRecv, size, pp/(2*iterations))

		// --- Sendrecv ring. ---
		sr, err := measure(m, ranks, &pool, func(r *mpi.Rank) {
			next := (r.ID() + 1) % r.Size()
			prev := (r.ID() + r.Size() - 1) % r.Size()
			for i := 0; i < iterations; i++ {
				r.Sendrecv(next, size, prev, size, i)
			}
		})
		if err != nil {
			return nil, err
		}
		put(mpi.RoutineSendrecv, size, sr/iterations)

		// --- collectives. ---
		colls := []struct {
			rt mpi.Routine
			op func(r *mpi.Rank)
		}{
			{mpi.RoutineBcast, func(r *mpi.Rank) { r.Bcast(0, size) }},
			{mpi.RoutineReduce, func(r *mpi.Rank) { r.Reduce(0, size) }},
			{mpi.RoutineAllreduce, func(r *mpi.Rank) { r.Allreduce(size) }},
			{mpi.RoutineAllgather, func(r *mpi.Rank) { r.Allgather(size) }},
			{mpi.RoutineAlltoall, func(r *mpi.Rank) { r.Alltoall(size) }},
		}
		for _, c := range colls {
			c := c
			el, err := measure(m, ranks, &pool, func(r *mpi.Rank) {
				for i := 0; i < iterations; i++ {
					c.op(r)
				}
			})
			if err != nil {
				return nil, err
			}
			put(c.rt, size, el/iterations)
		}

		// --- multi-Sendrecv: x in-flight Isend/Irecv pairs + Waitall,
		// measured for same-node pairs and (when the job spans nodes)
		// cross-node pairs — IMB's intra/inter cluster modes. ---
		a, b, err := multiSendrecvFit(m, ranks, &pool, size, pairAdjacent)
		if err != nil {
			return nil, fmt.Errorf("imb: multi-Sendrecv intra fit at %d B: %w", size, err)
		}
		t.NBIntra.Overhead = a
		t.NBIntra.InFlight[size] = b
		if multiNode {
			a, b, err = multiSendrecvFit(m, ranks, &pool, size, pairDistant)
			if err != nil {
				return nil, fmt.Errorf("imb: multi-Sendrecv inter fit at %d B: %w", size, err)
			}
		}
		t.NBInter.Overhead = a
		t.NBInter.InFlight[size] = b
	}

	// --- Barrier (size-independent). ---
	bar, err := measure(m, ranks, &pool, func(r *mpi.Rank) {
		for i := 0; i < iterations; i++ {
			r.Barrier()
		}
	})
	if err != nil {
		return nil, err
	}
	put(mpi.RoutineBarrier, 0, bar/iterations)

	return t, nil
}

// pairDistant pairs rank i with i±half (IMB's cross-cluster pattern: on a
// multi-node job the partners land on different nodes). Odd trailing ranks
// sit out.
func pairDistant(id, ranks int) int {
	half := ranks / 2
	if half == 0 {
		return -1
	}
	if id < half {
		return id + half
	}
	if id < 2*half {
		return id - half
	}
	return -1
}

// pairAdjacent pairs even rank i with i+1 (same node whenever a node holds
// at least two ranks): IMB's intra-cluster pattern.
func pairAdjacent(id, ranks int) int {
	if id%2 == 0 {
		if id+1 < ranks {
			return id + 1
		}
		return -1
	}
	return id - 1
}

// multiSendrecvFit measures the multi-Sendrecv benchmark over the x sweep
// with the given pairing and returns the Eq. 1 (overhead, in-flight) fit.
func multiSendrecvFit(m *arch.Machine, ranks int, pool *des.Pool, size units.Bytes, pairing func(id, ranks int) int) (a, b units.Seconds, err error) {
	var xTimes []float64
	for _, x := range multiXs {
		x := x
		el, err := measure(m, ranks, pool, func(r *mpi.Rank) {
			partner := pairing(r.ID(), ranks)
			if partner < 0 {
				return
			}
			for i := 0; i < iterations; i++ {
				reqs := make([]*mpi.Request, 0, 2*x)
				for j := 0; j < x; j++ {
					reqs = append(reqs, r.Isend(partner, size, i*x+j))
					reqs = append(reqs, r.Irecv(partner, size, i*x+j))
				}
				r.Waitall(reqs...)
			}
		})
		if err != nil {
			return 0, 0, err
		}
		xTimes = append(xTimes, el/iterations)
	}
	xs := make([]float64, len(multiXs))
	for i, x := range multiXs {
		xs[i] = float64(x)
	}
	a, b, err = stats.LinearFit(xs, xTimes)
	if err != nil {
		return 0, 0, err
	}
	if a < 0 {
		a = 0
	}
	if b <= 0 {
		b = xTimes[0] // degenerate fit: fall back to the x=1 time
	}
	return a, b, nil
}

// measure runs program on a fresh world whose ranks run on pool's
// coroutines and returns the makespan.
func measure(m *arch.Machine, ranks int, pool *des.Pool, program func(r *mpi.Rank)) (units.Seconds, error) {
	w, err := mpi.NewWorld(m, ranks)
	if err != nil {
		return 0, err
	}
	w.UsePool(pool)
	return w.Run(program)
}

// BarrierTime is a convenience accessor for the size-independent barrier
// measurement.
func (t *Table) BarrierTime() units.Seconds {
	if m, ok := t.PerOp[mpi.RoutineBarrier]; ok {
		return m[0]
	}
	return 0
}
