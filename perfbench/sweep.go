package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
)

const (
	// sweepSetups is how many times set-up fills the characterisation
	// layer; setup_s is the median fill.
	sweepSetups = 2
	// minPasses gives the p90 of the profile-hit projections at least ten
	// samples beyond it.
	minPasses = 3
)

// runSweep measures the procurement grid through a shared core.Store.
//
// Set-up fills a store's characterisation layer with the SPEC and IMB data
// of hydra and the three targets at every count the grid needs, and
// exports it; it does so sweepSetups times. The measured phase then runs
// passes: each pass imports that characterisation into a fresh store and
// projects the whole grid in a seeded order, so every projection is a
// surrogate-layer miss and the first projection of each (app, class)
// fills the profile layer. A pass starts while the last one's duration
// still fits in the run time, and at least minPasses run, so every run
// measures whole grids and its percentiles do not depend on where time ran
// out.
func runSweep(cfg config) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	fillCounts := []int{4, 8, 16, 32, 64, 128}
	var setup []float64
	var snap *core.StoreSnapshot
	for i := 0; i < sweepSetups; i++ {
		fill := core.NewStore(core.StoreConfig{})
		t0 := time.Now()
		for _, t := range targets {
			if _, err := core.NewPipelineCtx(ctx, arch.MustGet(arch.Hydra), arch.MustGet(t), fillCounts, core.Options{Store: fill}); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
		snap = fill.ExportSnapshot()
	}
	fmt.Fprintf(cfg.log, "setup characterisation fills %v s, %d entries\n", setup, len(snap.Chars))

	grid := sweepGrid()
	rng := newRand(cfg.seed, 2)
	p := newProjector(cfg, o)
	// light projections hit the profile layer; heavy ones filled it.
	var light, heavy sample
	var busy time.Duration
	var st *core.Store
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	passes := 0
	var lastPass time.Duration
	for ; passes < minPasses || time.Since(start)+lastPass <= cfg.duration; passes++ {
		// Drop the last pass's store and collect it, so that the peak
		// heap does not depend on when the collector ran.
		st = nil
		runtime.GC()
		passStart := time.Now()
		st = core.NewStore(core.StoreConfig{Obs: p.scope})
		if stored, rejected := st.ImportSnapshot(snap); rejected != 0 || stored != len(snap.Chars) {
			return nil, fmt.Errorf("characterisation import: %d stored, %d rejected", stored, rejected)
		}
		profiled := map[string]bool{}
		for i, r := range shuffled(rng, grid) {
			d, _, ok := p.run(ctx, i, r, st)
			if !ok {
				continue
			}
			busy += d
			app := fmt.Sprintf("%s.%c", r.bench, r.class)
			if profiled[app] {
				light.add(d)
			} else {
				profiled[app] = true
				heavy.add(d)
			}
		}
		lastPass = time.Since(passStart)
	}
	runtime.ReadMemStats(&ms1)
	n := len(light) + len(heavy)
	if n == 0 {
		return nil, fmt.Errorf("no projection succeeded")
	}
	fmt.Fprintf(cfg.log, "sweep passes=%d projections=%d busy=%.3fs\n", passes, n, busy.Seconds())

	// The sweep's state is the last pass's store, holding the whole grid.
	heap := liveHeapMB()
	runtime.KeepAlive(st)
	endToEnd(o, cfg.log, setup, light, heavy, 0.9, float64(n)/busy.Seconds(), heap)
	if cfg.traced {
		l := metrics{}
		projectionLayers(l, p)
		// Set-up imported every table, so a characterisation miss in the
		// measured phase would be a table built again.
		misses, _ := p.scope.Metrics().Counter("core.store.characterisation_misses")
		l.set("imb.tables", float64(misses)/float64(o.attempted), "count/op")
		programCounters(l, p.scope, "core.store")
		runtimeLayer(l, &ms0, &ms1, o.attempted)
		if err := microLayers(l, cfg); err != nil {
			return nil, err
		}
		o.layers = l
	}
	return o, nil
}
