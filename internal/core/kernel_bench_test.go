package core

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// benchKernelFixture builds a kernel at the production shape: the SPEC
// pool (~29 benchmarks) over the 26×2-entry character vector, and a cycle
// of sparse MaxActive-style genomes.
func benchKernelFixture(benches, metrics int) (*EvalKernel, [][]float64) {
	src := rng.New(fmt.Sprintf("bench-kernel-%dx%d", benches, metrics))
	pool := make([][]float64, benches)
	for k := range pool {
		row := make([]float64, metrics)
		for j := range row {
			row[j] = src.Float64() * 3
		}
		pool[k] = row
	}
	app := make([]float64, metrics)
	weights := make([]float64, metrics)
	for j := range app {
		app[j] = src.Float64() * 3
		weights[j] = src.Float64()
	}
	genomes := make([][]float64, 64)
	for i := range genomes {
		g := make([]float64, benches)
		for _, idx := range src.Perm(benches)[:1+src.Intn(5)] {
			g[idx] = src.Float64()
		}
		genomes[i] = g
	}
	return NewEvalKernel(pool, app, weights, 1.0), genomes
}

// BenchmarkKernel is the per-genome objective: one EvalKernel.Objective
// call on a surrogate-search-shaped problem. Gated by cmd/benchstatgate
// against BENCH_kernel.json — allocs/op must stay 0.
func BenchmarkKernel(b *testing.B) {
	kern, genomes := benchKernelFixture(29, 52)
	scratch := kern.NewScratch()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += kern.Objective(genomes[i%len(genomes)], scratch)
	}
	_ = sink
}
