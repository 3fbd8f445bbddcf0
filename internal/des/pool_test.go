package des

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settles fails t unless the goroutine count falls back to before: no
// simulated process may outlive the Run (or the Pool.Close) that ended it.
func settles(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) outlived the simulation", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// leakProcs is how many processes each leak scenario spawns.
const leakProcs = 8

// leakScenarios are simulations that end every way Run can end, each
// with processes parked in different states when it does.
var leakScenarios = []struct {
	name    string
	wantErr string // "" for a clean run
	started int    // processes that ran, and so took a coroutine
	build   func(k *Kernel)
}{
	{"clean", "", leakProcs, func(k *Kernel) {
		s := k.NewSignal("go")
		for i := 0; i < leakProcs; i++ {
			i := i
			k.SpawnKind("p", i, func(p *Proc) {
				if i == 0 {
					p.Advance(1)
					s.Fire()
					return
				}
				p.WaitSignal(s)
				p.Advance(float64(i))
			})
		}
	}},
	{"deadlock", "deadlock", leakProcs, func(k *Kernel) {
		never := k.NewSignal("never")
		for i := 0; i < leakProcs; i++ {
			k.SpawnKind("p", i, func(p *Proc) {
				p.Advance(1)
				p.WaitSignal(never)
			})
		}
	}},
	{"panic-while-parked", "boom", leakProcs, func(k *Kernel) {
		never := k.NewSignal("never")
		for i := 0; i < leakProcs; i++ {
			i := i
			k.SpawnKind("p", i, func(p *Proc) {
				if i == leakProcs-1 {
					p.Advance(1)
					panic("boom")
				}
				p.WaitSignal(never)
			})
		}
	}},
	{"panic-before-others-start", "boom", 1, func(k *Kernel) {
		for i := 0; i < leakProcs; i++ {
			i := i
			k.SpawnKind("p", i, func(p *Proc) {
				if i == 0 {
					panic("boom")
				}
				p.Advance(1)
			})
		}
	}},
}

func runScenario(t *testing.T, k *Kernel, wantErr string) {
	t.Helper()
	err := k.Run()
	switch {
	case wantErr == "" && err != nil:
		t.Fatalf("Run: %v", err)
	case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
		t.Fatalf("Run error %v, want one containing %q", err, wantErr)
	}
	if k.live != 0 {
		t.Fatalf("%d processes still live after Run", k.live)
	}
}

func TestRunLeaksNoGoroutines(t *testing.T) {
	for _, sc := range leakScenarios {
		t.Run(sc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel()
			sc.build(k)
			runScenario(t, k, sc.wantErr)
			settles(t, before)
		})
	}
}

func TestPoolParksEveryRunnerAndCloseEndsThem(t *testing.T) {
	for _, sc := range leakScenarios {
		t.Run(sc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var pool Pool
			for round := 0; round < 3; round++ {
				k := NewKernel()
				k.UsePool(&pool)
				sc.build(k)
				runScenario(t, k, sc.wantErr)
				// Every process that started — finished, aborted or
				// panicked — parked its coroutine; later rounds reuse them.
				if n := len(pool.idle); n != sc.started {
					t.Fatalf("round %d: %d idle runners, want %d", round, n, sc.started)
				}
			}
			pool.Close()
			if len(pool.idle) != 0 {
				t.Fatalf("Close left %d idle runners", len(pool.idle))
			}
			settles(t, before)
		})
	}
}

// traceSim is a reference simulation that logs every step it takes, for
// comparing runs event for event.
func traceSim(k *Kernel) *[]string {
	var log []string
	sigs := make([]*Signal, 6)
	for i := range sigs {
		sigs[i] = k.NewSignalKind("s", i)
	}
	for i := 0; i < 6; i++ {
		i := i
		k.SpawnKind("p", i, func(p *Proc) {
			for step := 0; step < 4; step++ {
				p.Advance(float64((i*7+step*3)%5) * 0.25)
				log = append(log, fmt.Sprintf("%s step %d at %g", p.Name(), step, p.Now()))
			}
			sigs[i].Fire()
			p.WaitSignal(sigs[(i+1)%len(sigs)])
			log = append(log, fmt.Sprintf("%s joined at %g", p.Name(), p.Now()))
		})
	}
	return &log
}

func TestRunnerReusedAfterAbortMatchesFresh(t *testing.T) {
	before := runtime.NumGoroutine()
	fresh := NewKernel()
	want := traceSim(fresh)
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}

	var pool Pool
	aborted := NewKernel()
	aborted.UsePool(&pool)
	never := aborted.NewSignal("never")
	for i := 0; i < 6; i++ {
		aborted.SpawnKind("stuck", i, func(p *Proc) {
			p.Advance(1)
			p.WaitSignal(never)
		})
	}
	if err := aborted.Run(); err == nil {
		t.Fatal("deadlock must be reported")
	}
	if len(pool.idle) != 6 {
		t.Fatalf("aborted run parked %d runners, want 6", len(pool.idle))
	}

	reused := NewKernel()
	reused.UsePool(&pool)
	got := traceSim(reused)
	if err := reused.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pool.idle) != 6 {
		t.Fatalf("reused run left %d idle runners, want the same 6", len(pool.idle))
	}
	if reused.Now() != fresh.Now() {
		t.Errorf("makespan %v on reused runners, %v on fresh ones", reused.Now(), fresh.Now())
	}
	if strings.Join(*got, "\n") != strings.Join(*want, "\n") {
		t.Errorf("event order differs on reused runners:\n%s\nwant:\n%s",
			strings.Join(*got, "\n"), strings.Join(*want, "\n"))
	}
	pool.Close()
	settles(t, before)
}
