package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/arch"
	"repro/internal/nas"
)

// request is one projection a workload asks for.
type request struct {
	base, target string
	bench        nas.Benchmark
	class        nas.Class
	ranks        int
}

// key names the request in digests.json and in reports.
func (r request) key() string {
	return fmt.Sprintf("%s>%s:%s.%c@%d", r.base, r.target, r.bench, r.class, r.ranks)
}

// apiBody is the request as swappd's JSON API takes it.
func (r request) apiBody() string {
	return fmt.Sprintf(`{"base":%q,"target":%q,"bench":%q,"class":%q,"ranks":%d}`,
		r.base, r.target, r.bench, string(r.class), r.ranks)
}

// targets are the paper's three target machines; hydra is its base.
var targets = []string{arch.Power6, arch.BlueGene, arch.Westmere}

// charCounts is the base-machine characterisation sweep the root package's
// swapp.Project runs for a request: the paper's counts up to the
// benchmark's zone limit, the requested count, and 4 and 8 for LU-MZ.
func charCounts(b nas.Benchmark, c nas.Class, ranks int) []int {
	max := nas.MaxRanks(b, c)
	set := map[int]bool{}
	for _, v := range []int{16, 32, 64, 128, ranks} {
		if v >= 2 && v <= max {
			set[v] = true
		}
	}
	if b == nas.LU {
		set[4], set[8] = true, true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// coldRounds is the cold workload's request sequence: rounds of BT-MZ
// and SP-MZ class C on each of the three targets, in a seeded order and
// at seeded paper rank counts. All of them characterise both machines at
// 16 to 128 ranks, and every round holds each app and target once, so a
// run's median does not depend on which requests its seed drew. LU-MZ (a
// tenth of the cost) and class D (a third more) would make it depend on
// that.
func coldRounds(rng *rand.Rand, rounds int) []request {
	var out []request
	for i := 0; i < rounds; i++ {
		var round []request
		for _, b := range []nas.Benchmark{nas.BT, nas.SP} {
			ranks := nas.PaperRankCounts(b)
			for _, t := range targets {
				round = append(round, request{arch.Hydra, t, b, nas.ClassC, ranks[rng.IntN(len(ranks))]})
			}
		}
		out = append(out, shuffled(rng, round)...)
	}
	return out
}

// coldRequests are every request coldRounds can draw.
func coldRequests() []request {
	var out []request
	for _, b := range []nas.Benchmark{nas.BT, nas.SP} {
		for _, r := range nas.PaperRankCounts(b) {
			for _, t := range targets {
				out = append(out, request{arch.Hydra, t, b, nas.ClassC, r})
			}
		}
	}
	return out
}

// sweepGrid is the procurement grid: every app, classes C and D, the
// paper's rank counts, and the three targets, from hydra.
func sweepGrid() []request {
	var out []request
	for _, b := range nas.Benchmarks() {
		for _, c := range []nas.Class{nas.ClassC, nas.ClassD} {
			for _, r := range nas.PaperRankCounts(b) {
				for _, t := range targets {
					out = append(out, request{arch.Hydra, t, b, c, r})
				}
			}
		}
	}
	return out
}

// jobRequest is the async job the durable layer's microbenchmark submits:
// LU-MZ characterises only up to 16 ranks, so the job costs little beyond
// its GA search and the checkpoints it journals.
var jobRequest = request{arch.Hydra, arch.Power6, nas.LU, nas.ClassC, 4}

// universe is every request any workload can issue: the digest set.
func universe() []request {
	seen := map[string]bool{}
	var out []request
	for _, set := range [][]request{coldRequests(), sweepGrid(), {jobRequest}} {
		for _, r := range set {
			if !seen[r.key()] {
				seen[r.key()] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// newRand is the workload's seeded generator; stream separates the
// independent draws of one workload.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// shuffled returns a seeded permutation of rs.
func shuffled(rng *rand.Rand, rs []request) []request {
	out := append([]request(nil), rs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
