package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/nas"
)

// warmups is how many set-ups a cold run makes; setup_s is their median.
const warmups = 3

// runCold measures distinct projections with no layered store, one after
// another. Set-up is the process warm-up: one cheap LU-MZ projection,
// made warmups times. The measured phase takes requests from coldRounds
// until the run time is spent, finishing the request in progress.
func runCold(cfg config) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	warm := request{arch.Hydra, arch.Power6, nas.LU, nas.ClassC, 16}
	var setup []float64
	for i := 0; i < warmups; i++ {
		t0 := time.Now()
		if _, _, err := projection(ctx, warm, nil, nil, nil, -1); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	// More rounds than a run can reach: the run ends on time, not on the list.
	reqs := coldRounds(newRand(cfg.seed, 1), 100)
	p := newProjector(cfg, o)
	var all sample
	var busy time.Duration
	var imbTables int
	var last *core.Pipeline
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; time.Since(start) < cfg.duration; i++ {
		r := reqs[i%len(reqs)]
		d, pipe, ok := p.run(ctx, i, r, nil)
		if !ok {
			continue
		}
		busy += d
		all.add(d)
		last = pipe
		// With no store, every table in the pipeline was built for it.
		imbTables += len(pipe.IMBBase) + len(pipe.IMBTarget)
		fmt.Fprintf(cfg.log, "cold %s %.3fs\n", r.key(), d.Seconds())
	}
	runtime.ReadMemStats(&ms1)
	if len(all) == 0 {
		return nil, fmt.Errorf("no projection succeeded")
	}

	// A cold request's state is its pipeline: both machines' SPEC and IMB
	// data.
	heap := liveHeapMB()
	runtime.KeepAlive(last)
	endToEnd(o, cfg.log, setup, all, all, 0.9, float64(len(all))/busy.Seconds(), heap)
	if cfg.traced {
		l := metrics{}
		projectionLayers(l, p)
		l.set("imb.tables", float64(imbTables)/float64(len(all)), "count/op")
		programCounters(l, p.scope, "core.store")
		runtimeLayer(l, &ms0, &ms1, o.attempted)
		if err := microLayers(l, cfg); err != nil {
			return nil, err
		}
		o.layers = l
	}
	return o, nil
}
