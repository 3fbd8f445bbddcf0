package imb

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/mpi"
	"repro/internal/units"
)

// smallSizes keeps unit-test sweeps fast.
func smallSizes() []units.Bytes { return units.Pow2Sizes(16, 64*units.KiB) }

func runTable(t *testing.T, machine string, ranks int) *Table {
	t.Helper()
	tab, err := Run(arch.MustGet(machine), ranks, smallSizes())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRunProducesAllRoutines(t *testing.T) {
	tab := runTable(t, arch.Hydra, 8)
	want := []mpi.Routine{
		mpi.RoutineSend, mpi.RoutineRecv, mpi.RoutineSendrecv,
		mpi.RoutineBcast, mpi.RoutineReduce, mpi.RoutineAllreduce,
		mpi.RoutineAllgather, mpi.RoutineAlltoall, mpi.RoutineBarrier,
	}
	for _, rt := range want {
		if _, ok := tab.PerOp[rt]; !ok {
			t.Errorf("routine %s missing from table", rt)
		}
	}
	for _, size := range smallSizes() {
		if v := tab.PerOp[mpi.RoutineBcast][size]; v <= 0 {
			t.Errorf("bcast at %d B: non-positive time %v", size, v)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(arch.MustGet(arch.Hydra), 1, nil); err == nil {
		t.Error("1 rank must fail")
	}
	if _, err := Run(arch.MustGet(arch.Power6), 4096, nil); err == nil {
		t.Error("oversubscription must fail")
	}
}

func TestTimesGrowWithSize(t *testing.T) {
	tab := runTable(t, arch.Westmere, 12)
	for _, rt := range []mpi.Routine{mpi.RoutineSendrecv, mpi.RoutineAllreduce, mpi.RoutineAlltoall} {
		small := tab.PerOp[rt][16]
		big := tab.PerOp[rt][64*units.KiB]
		if big <= small {
			t.Errorf("%s: time must grow with size (%v vs %v)", rt, small, big)
		}
	}
}

func TestEq1FitSane(t *testing.T) {
	tab := runTable(t, arch.Power6, 8) // 8 ranks on a 32-core node: single node
	if tab.NBOverhead() < 0 {
		t.Errorf("negative overhead %v", tab.NBOverhead())
	}
	// In-flight time must grow with size and always be positive.
	prev := units.Seconds(0)
	for _, size := range smallSizes() {
		inf := tab.NBIntra.InFlight[size]
		if inf <= 0 {
			t.Fatalf("intra in-flight at %dB = %v", size, inf)
		}
		if inf < prev*(1-1e-9) {
			t.Errorf("in-flight shrank with size at %dB: %v < %v", size, inf, prev)
		}
		prev = inf
		// Single-node job: the inter fit falls back to the intra fit.
		if tab.NBInter.InFlight[size] != inf {
			t.Errorf("single-node job must reuse the intra fit at %dB", size)
		}
	}
	// TransferNB must be monotone in the succession counts.
	if tab.TransferNB(4096, 4, 0) <= tab.TransferNB(4096, 1, 0) {
		t.Error("Eq. 1 must grow with in-flight count")
	}
}

func TestEq1IntraVsInter(t *testing.T) {
	// On a genuinely multi-node job, cross-node successions must cost
	// more per message than same-node ones at large sizes.
	tab := runTable(t, arch.BlueGene, 16) // 4 nodes of 4
	size := units.Bytes(64 * units.KiB)
	if tab.InFlightInter(size) <= tab.InFlightIntra(size) {
		t.Errorf("inter in-flight %v should exceed intra %v",
			tab.InFlightInter(size), tab.InFlightIntra(size))
	}
}

func TestInterpolationBetweenGridPoints(t *testing.T) {
	tab := runTable(t, arch.Hydra, 8)
	lo, _ := tab.Time(mpi.RoutineSendrecv, 1024)
	mid, _ := tab.Time(mpi.RoutineSendrecv, 1500)
	hi, _ := tab.Time(mpi.RoutineSendrecv, 2048)
	const eps = 1e-9 // relative float tolerance
	if mid < lo*(1-eps) || hi < mid*(1-eps) {
		t.Errorf("interpolation not monotone: %v %v %v", lo, mid, hi)
	}
	if _, err := tab.Time(mpi.Routine("MPI_Nope"), 64); err == nil {
		t.Error("unknown routine must error")
	}
}

func TestBarrierTime(t *testing.T) {
	tab := runTable(t, arch.Hydra, 16)
	if tab.BarrierTime() <= 0 {
		t.Error("barrier time missing")
	}
}

func TestCollectivesScaleWithRanks(t *testing.T) {
	small := runTable(t, arch.Hydra, 4)
	big := runTable(t, arch.Hydra, 64)
	s := small.PerOp[mpi.RoutineAllreduce][4*units.KiB]
	b := big.PerOp[mpi.RoutineAllreduce][4*units.KiB]
	if b <= s {
		t.Errorf("allreduce must cost more at 64 ranks: %v vs %v", s, b)
	}
}

func TestBlueGeneCollectivesFlat(t *testing.T) {
	small := runTable(t, arch.BlueGene, 16)
	big := runTable(t, arch.BlueGene, 256)
	s := small.PerOp[mpi.RoutineBcast][4*units.KiB]
	b := big.PerOp[mpi.RoutineBcast][4*units.KiB]
	if b > 2*s {
		t.Errorf("BG/P tree bcast should be near-flat in ranks: 16→%v 256→%v", s, b)
	}
}

func TestDeterministicTables(t *testing.T) {
	a := runTable(t, arch.Westmere, 12)
	b := runTable(t, arch.Westmere, 12)
	for rt, sizes := range a.PerOp {
		for size, v := range sizes {
			if b.PerOp[rt][size] != v {
				t.Fatalf("nondeterministic measurement: %s@%dB %v vs %v", rt, size, v, b.PerOp[rt][size])
			}
		}
	}
	if a.NBOverhead() != b.NBOverhead() {
		t.Error("nondeterministic Eq. 1 fit")
	}
}

func TestPairPartner(t *testing.T) {
	cases := []struct{ id, ranks, want int }{
		{0, 8, 4}, {4, 8, 0}, {3, 8, 7},
		{0, 2, 1}, {1, 2, 0},
		{6, 7, -1}, // 7 ranks: half=3, pairs cover 0..5, rank 6 sits out
		{5, 7, 2},
		{0, 1, -1},
	}
	for _, c := range cases {
		if got := pairDistant(c.id, c.ranks); got != c.want {
			t.Errorf("pairDistant(%d,%d) = %d, want %d", c.id, c.ranks, got, c.want)
		}
	}
	// Pairing is symmetric where defined.
	for ranks := 2; ranks <= 9; ranks++ {
		for id := 0; id < ranks; id++ {
			p := pairDistant(id, ranks)
			if p >= 0 && pairDistant(p, ranks) != id {
				t.Errorf("pairing not symmetric at id=%d ranks=%d", id, ranks)
			}
		}
	}
}

func TestFasterNetworkFasterTable(t *testing.T) {
	// Westmere's QDR InfiniBand beats Hydra's Federation on latency and
	// bandwidth; its point-to-point table entries should be faster.
	hy := runTable(t, arch.Hydra, 32)
	wm := runTable(t, arch.Westmere, 32)
	hyT, _ := hy.Time(mpi.RoutineSendrecv, 64*units.KiB)
	wmT, _ := wm.Time(mpi.RoutineSendrecv, 64*units.KiB)
	if wmT >= hyT {
		t.Errorf("QDR should beat Federation: %v vs %v", wmT, hyT)
	}
}

// TestInterpSizeSkipsNonPositive is the regression test for the 1e-12
// substitution bug: a single zero (or negative) sample used to be replaced
// by 1e-12 before the log-log fit, bending the interpolated curve through
// an absurd point and poisoning every query near it. Non-positive samples
// must instead be skipped, so interpolation bridges their neighbours.
func TestInterpSizeSkipsNonPositive(t *testing.T) {
	grid := []units.Bytes{1024, 2048, 4096}
	m := map[units.Bytes]units.Seconds{
		1024: 1e-5,
		2048: 0, // corrupt sample: must be ignored, not clamped to 1e-12
		4096: 4e-5,
	}
	// Exactly on the corrupt grid point: with the bug this returned 1e-12;
	// now it log-log interpolates between the healthy neighbours, landing
	// geometrically between them.
	got := interpSize(grid, m, 2048)
	if got < 1e-5 || got > 4e-5 {
		t.Errorf("interpSize at corrupt point = %v, want within [1e-5, 4e-5]", got)
	}
	// Near the corrupt point the curve must stay monotone over the healthy
	// bracket rather than diving toward the placeholder.
	lo := interpSize(grid, m, 1500)
	hi := interpSize(grid, m, 3000)
	if !(lo >= 1e-5 && lo <= got && got <= hi && hi <= 4e-5) {
		t.Errorf("interpolation not monotone across corrupt sample: %v %v %v", lo, got, hi)
	}
	// Negative samples are equally skipped.
	m[2048] = -3
	if again := interpSize(grid, m, 2048); again != got {
		t.Errorf("negative sample handled differently from zero: %v vs %v", again, got)
	}
	// All samples corrupt: nothing to fit, return 0.
	all := map[units.Bytes]units.Seconds{1024: 0, 2048: -1}
	if v := interpSize(grid, all, 2048); v != 0 {
		t.Errorf("all-non-positive table should yield 0, got %v", v)
	}
}

func TestRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	runTable(t, arch.Hydra, 32)
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d rank goroutine(s) outlived imb.Run", runtime.NumGoroutine()-before)
		}
	}
}

// BenchmarkIMBRun times one full default-grid suite: the sweep of short
// simulated jobs whose coroutine switches and allocations dominate a cold
// projection's CPU.
func BenchmarkIMBRun(b *testing.B) {
	m := arch.MustGet(arch.Hydra)
	b.Run("128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(m, 128, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
