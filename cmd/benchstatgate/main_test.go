package main

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

func kernelSuite(cpus int, rows map[string]Row) Suite {
	return Suite{CPUs: cpus, GOMAXPROCS: cpus, Rows: rows}
}

func servingSuite(cpus int, rows map[string]Row) Suite {
	return Suite{Serving: true, CPUs: cpus, GOMAXPROCS: cpus, Rows: rows}
}

// TestGateRules runs one case per rule of the gate.
func TestGateRules(t *testing.T) {
	hot := Row{Time: 0.2, Allocs: 100, Requests: 200}
	cases := []struct {
		name    string
		base    Suite
		run     Suite
		runText string // when set, parsed as the run instead of run
		fails   int
		want    string
	}{
		{
			name:  "alloc within tolerance",
			base:  kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 100}}),
			run:   kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 120}}),
			fails: 0,
			want:  "ok   BenchmarkK allocs/op 120.0",
		},
		{
			name:  "alloc regression",
			base:  kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 100}}),
			run:   kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 121}}),
			fails: 1,
			want:  "FAIL BenchmarkK allocs/op 121.0",
		},
		{
			name:  "alloc regression on another host",
			base:  kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 100}}),
			run:   kernelSuite(2, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 121}}),
			fails: 1,
			want:  "FAIL BenchmarkK allocs/op 121.0",
		},
		{
			name:  "zero-alloc baseline",
			base:  kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 0}}),
			run:   kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 10, Allocs: 1}}),
			fails: 1,
			want:  "FAIL BenchmarkK allocs/op 1.0 vs baseline 0.0",
		},
		{
			name:  "time regression on the same host",
			base:  kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 100, Allocs: 0}}),
			run:   kernelSuite(1, map[string]Row{"BenchmarkK": {Time: 121, Allocs: 0}}),
			fails: 1,
			want:  "FAIL BenchmarkK ns/op 121.0",
		},
		{
			name:  "time skipped on another host",
			base:  servingSuite(1, map[string]Row{"cache-hot": hot}),
			run:   servingSuite(2, map[string]Row{"cache-hot": {Time: 10, Allocs: 100, Requests: 200}}),
			fails: 0,
			want:  "time gates skipped",
		},
		{
			name:  "serving p50 tolerance",
			base:  servingSuite(1, map[string]Row{"cache-hot": {Time: 1, Allocs: 100, Requests: 200}}),
			run:   servingSuite(1, map[string]Row{"cache-hot": {Time: 1.4, Allocs: 100, Requests: 200}}),
			fails: 0,
			want:  "ok   cache-hot p50_ms 1.4",
		},
		{
			name:  "baseline row missing from the run",
			base:  servingSuite(1, map[string]Row{"cache-hot": hot, "cache-cold": {Time: 1, Allocs: 1, Requests: 5}}),
			run:   servingSuite(1, map[string]Row{"cache-hot": hot}),
			fails: 1,
			want:  "FAIL cache-cold: baseline row missing from this run",
		},
		{
			name:  "new run row",
			base:  servingSuite(1, map[string]Row{"cache-hot": hot}),
			run:   servingSuite(1, map[string]Row{"cache-hot": hot, "cache-new": {Time: 1, Allocs: 1e9, Requests: 5}}),
			fails: 0,
			want:  "warning: cache-new: not in baseline",
		},
		{
			name:  "request-count mismatch",
			base:  servingSuite(1, map[string]Row{"cache-hot": hot}),
			run:   servingSuite(1, map[string]Row{"cache-hot": {Time: 0.2, Allocs: 100, Requests: 1}}),
			fails: 1,
			want:  "FAIL cache-hot: measured at 1 requests vs 200 in baseline",
		},
		{
			name:  "request errors",
			base:  servingSuite(1, map[string]Row{"cache-cold": {Time: 1, Allocs: 100, Requests: 5}}),
			run:   servingSuite(1, map[string]Row{"cache-cold": {Time: 1, Allocs: 100, Requests: 5, Errors: 4}}),
			fails: 1,
			want:  "FAIL cache-cold: 4 request errors vs 0 in baseline",
		},
		{
			name:  "replica tolerance",
			base:  servingSuite(1, map[string]Row{"cluster-scaling-4": {Time: 1, Allocs: 100, Requests: 12}}),
			run:   servingSuite(1, map[string]Row{"cluster-scaling-4": {Time: 1, Allocs: 140, Requests: 12}}),
			fails: 0,
			want:  "ok   cluster-scaling-4 allocs/op 140.0 (baseline 100.0, tol 50%)",
		},
		{
			name:  "single-server scenario keeps the alloc tolerance",
			base:  servingSuite(1, map[string]Row{"cache-hot": hot}),
			run:   servingSuite(1, map[string]Row{"cache-hot": {Time: 0.2, Allocs: 140, Requests: 200}}),
			fails: 1,
			want:  "FAIL cache-hot allocs/op 140.0",
		},
		{
			name: "-count minimum collapsing",
			base: Suite{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
				Rows: map[string]Row{"BenchmarkScoreAll/hit": {Time: 100, Allocs: 1}}},
			runText: "goos: linux\n" +
				"BenchmarkScoreAll/hit-8 \t 100 \t 300.0 ns/op \t 16 B/op \t 3 allocs/op\n" +
				"BenchmarkScoreAll/hit-8 \t 100 \t 100.0 ns/op \t 16 B/op \t 2 allocs/op\n" +
				"BenchmarkScoreAll/hit-8 \t 100 \t 200.0 ns/op \t 16 B/op \t 1 allocs/op\n" +
				"PASS\n",
			fails: 0,
			want:  "ok   BenchmarkScoreAll/hit ns/op 100.0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := tc.run
			if tc.runText != "" {
				var err error
				if run, err = parse([]byte(tc.runText)); err != nil {
					t.Fatal(err)
				}
			}
			var out strings.Builder
			if got := gate(&out, tc.base, run); got != tc.fails {
				t.Errorf("gate failed %d rows, want %d\n%s", got, tc.fails, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestCommittedBaselines parses both committed baselines, checks the
// format each is detected as, and gates each against itself: every row
// must compare clean.
func TestCommittedBaselines(t *testing.T) {
	for _, tc := range []struct {
		file    string
		serving bool
		rows    int
	}{
		{"../../BENCH_kernel.json", false, 5},
		{"../../BENCH_swappd.json", true, 8},
	} {
		data, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		s, err := parse(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if s.Serving != tc.serving || len(s.Rows) != tc.rows {
			t.Errorf("%s: serving=%v with %d rows, want serving=%v with %d", tc.file, s.Serving, len(s.Rows), tc.serving, tc.rows)
		}
		var out strings.Builder
		if n := gate(&out, s, s); n != 0 {
			t.Errorf("%s gated against itself: %d failures\n%s", tc.file, n, out.String())
		}
	}
}
