package mpi

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/des"
	"repro/internal/units"
)

// world builds a test world, failing the test on error.
func world(t *testing.T, machine string, size int) *World {
	t.Helper()
	w, err := NewWorld(arch.MustGet(machine), size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(arch.MustGet(arch.Power6), 0); err == nil {
		t.Error("size 0 must fail")
	}
	if _, err := NewWorld(arch.MustGet(arch.Power6), 129); err == nil {
		t.Error("oversubscription must fail (P6 has 128 cores)")
	}
	if _, err := NewWorld(arch.MustGet(arch.Power6), 128); err != nil {
		t.Errorf("full machine must be allowed: %v", err)
	}
}

func TestBlockingPingPong(t *testing.T) {
	w := world(t, arch.Hydra, 2)
	makespan, err := w.Run(func(r *Rank) {
		const size = 1024
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				r.Send(1, size, i)
				r.Recv(1, size, 1000+i)
			} else {
				r.Recv(0, size, i)
				r.Send(0, size, 1000+i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 messages, each at least latency + overhead; ranks 0,1 share a
	// node on Hydra, so intra-node parameters apply.
	net := arch.MustGet(arch.Hydra).Net
	minPer := (net.IntraLatencyUS + net.LibOverheadUS) * 1e-6
	if makespan < 20*minPer {
		t.Errorf("ping-pong makespan %v below physical floor %v", makespan, 20*minPer)
	}
	if makespan > 1e-2 {
		t.Errorf("ping-pong makespan %v implausibly long", makespan)
	}
}

func TestInterNodeSlowerThanIntra(t *testing.T) {
	run := func(dst int) units.Seconds {
		w := world(t, arch.Hydra, 32)
		ms, err := w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				for i := 0; i < 50; i++ {
					r.Send(dst, 4096, i)
				}
			case dst:
				for i := 0; i < 50; i++ {
					r.Recv(0, 4096, i)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if intra, inter := run(1), run(16); intra >= inter {
		t.Errorf("intra %v should beat inter %v", intra, inter)
	}
}

func TestIsendIrecvWaitall(t *testing.T) {
	w := world(t, arch.Power6, 4)
	var mu sync.Mutex
	ends := map[int]units.Seconds{}
	_, err := w.Run(func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		s := r.Isend(next, 8192, 7)
		v := r.Irecv(prev, 8192, 7)
		r.Waitall(s, v)
		mu.Lock()
		ends[r.ID()] = r.Now()
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, end := range ends {
		if end <= 0 {
			t.Errorf("rank %d finished at %v", id, end)
		}
	}
}

func TestMultipleInFlightSerialise(t *testing.T) {
	// Eq. 1: x messages in flight cost ≈ lib + x·T_inFlight, so doubling
	// x should add roughly x extra serialization times, not be free.
	elapsed := func(x int) units.Seconds {
		w := world(t, arch.Westmere, 24)
		var wait units.Seconds
		_, err := w.Run(func(r *Rank) {
			const size = 256 * units.KiB
			switch r.ID() {
			case 0:
				reqs := make([]*Request, 0, 2*x)
				for i := 0; i < x; i++ {
					reqs = append(reqs, r.Isend(12, size, i))
					reqs = append(reqs, r.Irecv(12, size, 100+i))
				}
				start := r.Now()
				r.Waitall(reqs...)
				wait = r.Now() - start
			case 12:
				reqs := make([]*Request, 0, 2*x)
				for i := 0; i < x; i++ {
					reqs = append(reqs, r.Irecv(0, size, i))
					reqs = append(reqs, r.Isend(0, size, 100+i))
				}
				r.Waitall(reqs...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return wait
	}
	one, four := elapsed(1), elapsed(4)
	if four < 2.5*one {
		t.Errorf("4 in-flight messages should serialize: x=1 %v, x=4 %v", one, four)
	}
	if four > 8*one {
		t.Errorf("serialization overshoot: x=1 %v, x=4 %v", one, four)
	}
}

func TestRendezvousWaitsForReceiver(t *testing.T) {
	// A large (rendezvous) message cannot fly before the recv posts: the
	// sender's wait must include the receiver's late arrival.
	const size = 512 * units.KiB // ≫ every machine's eager threshold
	lateRecv := func(delay units.Seconds) units.Seconds {
		w := world(t, arch.Power6, 2)
		var senderDone units.Seconds
		_, err := w.Run(func(r *Rank) {
			if r.ID() == 0 {
				req := r.Isend(1, size, 0)
				r.Waitall(req)
				senderDone = r.Now()
			} else {
				r.Compute(delay)
				r.Recv(0, size, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return senderDone
	}
	early, late := lateRecv(0), lateRecv(0.5)
	if late < 0.5 {
		t.Errorf("rendezvous send completed at %v before the receiver posted", late)
	}
	if early >= 0.4 {
		t.Errorf("prompt receiver should complete quickly, got %v", early)
	}
}

func TestEagerDoesNotWaitForReceiver(t *testing.T) {
	const size = 512 // well under every eager threshold
	w := world(t, arch.Power6, 2)
	var senderDone units.Seconds
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			req := r.Isend(1, size, 0)
			r.Waitall(req)
			senderDone = r.Now()
		} else {
			r.Compute(1.0)
			r.Recv(0, size, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone >= 0.5 {
		t.Errorf("eager send must complete without the receiver, got %v", senderDone)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two same-tag messages must match in post order; the simulation
	// completing without deadlock and with both sizes received checks
	// the queues.
	w := world(t, arch.Hydra, 2)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			a := r.Isend(1, 100, 5)
			b := r.Isend(1, 200, 5)
			r.Waitall(a, b)
		} else {
			a := r.Irecv(0, 100, 5)
			b := r.Irecv(0, 200, 5)
			r.Waitall(a, b)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSynchronize(t *testing.T) {
	w := world(t, arch.Hydra, 16)
	var mu sync.Mutex
	var exits []units.Seconds
	_, err := w.Run(func(r *Rank) {
		// Rank i computes i ms before the barrier: everyone must leave
		// at (or after) the slowest arrival.
		r.Compute(units.Seconds(r.ID()) * 1e-3)
		r.Barrier()
		mu.Lock()
		exits = append(exits, r.Now())
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exits {
		if e < 15e-3 {
			t.Errorf("a rank left the barrier at %v, before the slowest arrival", e)
		}
	}
	first := exits[0]
	for _, e := range exits {
		if math.Abs(e-first) > 1e-12 {
			t.Errorf("ranks left the barrier at different times: %v vs %v", e, first)
		}
	}
}

func TestCollectiveCostGrowsWithSize(t *testing.T) {
	run := func(size units.Bytes) units.Seconds {
		w := world(t, arch.Westmere, 32)
		ms, err := w.Run(func(r *Rank) {
			for i := 0; i < 10; i++ {
				r.Allreduce(size)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if small, big := run(8), run(1*units.MiB); small >= big {
		t.Errorf("allreduce cost must grow with size: %v vs %v", small, big)
	}
}

func TestCollectiveMismatchPanics(t *testing.T) {
	w := world(t, arch.Hydra, 2)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Barrier()
		} else {
			r.Allreduce(8)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") {
		t.Fatalf("mismatched collectives must fail loudly, got %v", err)
	}
}

func TestBcastCheaperOnBlueGeneTree(t *testing.T) {
	// The same 64-rank broadcast, relative to point-to-point cost, is far
	// cheaper on BG/P's collective tree than a binomial tree would be.
	msOn := func(machine string) units.Seconds {
		w := world(t, machine, 64)
		ms, err := w.Run(func(r *Rank) {
			for i := 0; i < 20; i++ {
				r.Bcast(0, 4096)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	bg := msOn(arch.BlueGene)
	hy := msOn(arch.Hydra)
	// BG/P's p2p latency is comparable to Hydra's, but its tree bcast
	// avoids the log(p) stages: it should not be slower despite the much
	// slower links.
	if bg > hy {
		t.Errorf("BG/P tree bcast %v should beat Hydra binomial %v", bg, hy)
	}
}

func TestDeadlockReported(t *testing.T) {
	w := world(t, arch.Hydra, 2)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 64, 0) // nobody sends
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unmatched recv must deadlock, got %v", err)
	}
}

func TestObserverSeesTraffic(t *testing.T) {
	w := world(t, arch.Hydra, 4)
	obs := &recordingObserver{}
	w.SetObserver(obs)
	_, err := w.Run(func(r *Rank) {
		r.Compute(0.001)
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		s := r.Isend(next, 2048, 0)
		v := r.Irecv(prev, 2048, 0)
		r.Waitall(s, v)
		r.Allreduce(64)
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.compute != 4 {
		t.Errorf("observer saw %d compute events, want 4", obs.compute)
	}
	want := map[Routine]int{
		RoutineIsend: 4, RoutineIrecv: 4, RoutineWaitall: 4, RoutineAllreduce: 4,
	}
	for rt, n := range want {
		if obs.routines[rt] != n {
			t.Errorf("observer saw %d %s events, want %d", obs.routines[rt], rt, n)
		}
	}
	if obs.waitallBytes != 2048 {
		t.Errorf("Waitall mean bytes = %d, want 2048", obs.waitallBytes)
	}
	if obs.waitallCount != 2 {
		t.Errorf("Waitall request count = %d, want 2", obs.waitallCount)
	}
}

// recordingObserver counts events for the observer test.
type recordingObserver struct {
	mu           sync.Mutex
	compute      int
	routines     map[Routine]int
	waitallBytes units.Bytes
	waitallCount int
}

func (o *recordingObserver) OnCompute(rank int, dt units.Seconds) {
	o.mu.Lock()
	o.compute++
	o.mu.Unlock()
}

func (o *recordingObserver) OnRoutine(rank int, ev RoutineEvent) {
	o.mu.Lock()
	if o.routines == nil {
		o.routines = map[Routine]int{}
	}
	o.routines[ev.Routine]++
	if ev.Routine == RoutineWaitall {
		o.waitallBytes = ev.Bytes
		o.waitallCount = ev.Count
	}
	o.mu.Unlock()
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() units.Seconds {
		w := world(t, arch.Westmere, 48)
		ms, err := w.Run(func(r *Rank) {
			for step := 0; step < 5; step++ {
				r.Compute(units.Seconds(r.ID()%7) * 1e-4)
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				s := r.Isend(next, 16*units.KiB, step)
				v := r.Irecv(prev, 16*units.KiB, step)
				r.Waitall(s, v)
				if step%2 == 0 {
					r.Allreduce(8)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic makespan: %v vs %v", got, first)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[Routine]Class{
		RoutineIsend:     ClassP2PNB,
		RoutineIrecv:     ClassP2PNB,
		RoutineWaitall:   ClassP2PNB,
		RoutineSend:      ClassP2PB,
		RoutineSendrecv:  ClassP2PB,
		RoutineBcast:     ClassCollective,
		RoutineAllreduce: ClassCollective,
		RoutineBarrier:   ClassCollective,
	}
	for rt, want := range cases {
		if got := ClassOf(rt); got != want {
			t.Errorf("ClassOf(%s) = %s, want %s", rt, got, want)
		}
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := world(t, arch.Hydra, 8)
	_, err := w.Run(func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		for i := 0; i < 5; i++ {
			r.Sendrecv(next, 4096, prev, 4096, i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRankPanicsSurface(t *testing.T) {
	w := world(t, arch.Hydra, 2)
	_, err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Isend(5, 64, 0) // invalid destination
		}
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("invalid rank must surface as an error, got %v", err)
	}
}

func TestPooledWorldsMatchFresh(t *testing.T) {
	ring := func(r *Rank) {
		for step := 0; step < 3; step++ {
			r.Compute(units.Seconds(r.ID()%5) * 1e-4)
			s := r.Isend((r.ID()+1)%r.Size(), 4*units.KiB, step)
			v := r.Irecv((r.ID()+r.Size()-1)%r.Size(), 4*units.KiB, step)
			r.Waitall(s, v)
			r.Allreduce(8)
		}
	}
	stuck := func(r *Rank) { r.Recv((r.ID()+1)%r.Size(), 8, 0) }
	sizes := []int{16, 4, 24, 16}

	var want []units.Seconds
	for _, n := range sizes {
		ms, err := world(t, arch.Westmere, n).Run(ring)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ms)
	}

	before := runtime.NumGoroutine()
	var pool des.Pool
	for i, n := range sizes {
		// A deadlocked job between the measured ones leaves its aborted
		// ranks' coroutines in the pool for the next job to reuse.
		w := world(t, arch.Westmere, n)
		w.UsePool(&pool)
		if _, err := w.Run(stuck); err == nil {
			t.Fatal("all-receive job must deadlock")
		}
		w = world(t, arch.Westmere, n)
		w.UsePool(&pool)
		got, err := w.Run(ring)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Errorf("%d ranks: pooled makespan %v, fresh %v", n, got, want[i])
		}
	}
	pool.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d rank goroutine(s) outlived the pool", runtime.NumGoroutine()-before)
		}
	}
}
