// Command benchstatgate is the repository's one benchmark gate: it checks
// a run against a committed baseline and fails on a regression. A run is
// either `go test -bench -benchmem` text, checked against
// BENCH_kernel.json, or a cmd/swappbench report, checked against
// BENCH_swappd.json; which one is read from the content.
//
//	go test -run '^$' -bench 'Kernel|ScoreAll' -benchmem -count 3 ./... > run.txt
//	benchstatgate -baseline BENCH_kernel.json run.txt           # gate
//	benchstatgate -baseline BENCH_kernel.json -update run.txt   # rebaseline
//	swappbench -out run.json
//	benchstatgate -baseline BENCH_swappd.json run.json          # gate
//
// One rule set covers both:
//
//   - allocs/op is gated on every host: the allocation count of a
//     deterministic benchmark does not depend on the hardware. A zero
//     baseline fails on any allocation.
//   - Time (ns/op, or a scenario's p50) is gated only when the run's CPU
//     count and GOMAXPROCS match the baseline's.
//   - A baseline row missing from the run fails, so coverage cannot shrink
//     unnoticed. A run row missing from the baseline warns, so a new
//     benchmark never fails before its first baseline commit.
//   - A row measured at a different request count than its baseline fails:
//     allocs/op amortises fixed per-scenario costs over the requests and
//     latency depends on queueing depth, so the numbers do not compare.
//   - A row with more request errors than its baseline fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Tolerated regressions, in percent over the baseline.
const (
	allocTol      = 20
	kernelTimeTol = 20
	// servingTimeTol is looser: a scenario's wall-clock median on a
	// time-shared host swings tens of percent run to run.
	servingTimeTol = 50
	// replicaAllocTol covers the peer-replica scenarios, which route real
	// HTTP between servers: how many forwards take the admission queue's
	// 503-and-retry path depends on timing, so even allocs/op breathes.
	replicaAllocTol = 50
)

// Row is one gated measurement: a benchmark or a serving scenario.
type Row struct {
	Time     float64 // ns/op, or p50 ms for a scenario
	Allocs   float64 // allocs/op
	Requests int     // measured requests (scenarios only)
	Errors   int     // failed requests (scenarios only)
}

// Suite is a run or a baseline in the gate's terms.
type Suite struct {
	Serving          bool // swappbench scenarios, not go test benchmarks
	CPUs, GOMAXPROCS int
	Rows             map[string]Row
}

// kernelFile is the BENCH_kernel.json format.
type kernelFile struct {
	Description string `json:"description"`
	Host        struct {
		NumCPU     int `json:"num_cpu"`
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"host"`
	Benchmarks map[string]kernelRow `json:"benchmarks"`
}

type kernelRow struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// servingFile is the part of a swappbench report, such as
// BENCH_swappd.json, that the gate reads.
type servingFile struct {
	Environment struct {
		CPUs       int `json:"cpus"`
		GOMAXPROCS int `json:"gomaxprocs"`
	} `json:"environment"`
	Scenarios []struct {
		Name        string  `json:"name"`
		Requests    int     `json:"requests"`
		Errors      int     `json:"errors"`
		P50Ms       float64 `json:"p50_ms"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"scenarios"`
}

// benchLine matches one -benchmem result row, e.g.
//
//	BenchmarkScoreAll/hit-8   50244   4880 ns/op   0 B/op   0 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped from the name so baselines
// compare across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ [A-Za-z]+/op)*?\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

// parse reads a baseline or a run: JSON with "scenarios" is a swappbench
// report, JSON with "benchmarks" a kernel baseline, and anything else
// `go test -bench -benchmem` text, which carries no host of its own and
// is taken to come from this one.
func parse(data []byte) (Suite, error) {
	if !bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")) {
		return parseBench(data)
	}
	var doc struct {
		kernelFile
		servingFile
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return Suite{}, err
	}
	s := Suite{Rows: map[string]Row{}}
	switch {
	case doc.Scenarios != nil:
		s.Serving, s.CPUs, s.GOMAXPROCS = true, doc.Environment.CPUs, doc.Environment.GOMAXPROCS
		for _, sc := range doc.Scenarios {
			s.Rows[sc.Name] = Row{Time: sc.P50Ms, Allocs: sc.AllocsPerOp, Requests: sc.Requests, Errors: sc.Errors}
		}
	case doc.Benchmarks != nil:
		s.CPUs, s.GOMAXPROCS = doc.Host.NumCPU, doc.Host.GOMAXPROCS
		for name, b := range doc.Benchmarks {
			s.Rows[name] = Row{Time: b.NsPerOp, Allocs: b.AllocsPerOp}
		}
	default:
		return Suite{}, errors.New(`JSON has neither "scenarios" nor "benchmarks"`)
	}
	return s, nil
}

// parseBench reads -benchmem output. Repeated results for one benchmark
// (go test -count=N) collapse to the per-metric minimum: the fastest of N
// runs is the lowest-noise estimator of a benchmark's true cost on a
// shared box, so both gating runs and baselines should use -count >= 3.
func parseBench(data []byte) (Suite, error) {
	s := Suite{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Rows: map[string]Row{}}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		allocs, _ := strconv.ParseFloat(m[4], 64)
		got := Row{Time: ns, Allocs: allocs}
		if prev, ok := s.Rows[m[1]]; ok {
			got.Time = math.Min(got.Time, prev.Time)
			got.Allocs = math.Min(got.Allocs, prev.Allocs)
		}
		s.Rows[m[1]] = got
	}
	if len(s.Rows) == 0 {
		return s, errors.New("no benchmark result lines (was -benchmem set?)")
	}
	return s, sc.Err()
}

// replicaScenario reports whether a scenario hosts peer-wired replicas.
func replicaScenario(name string) bool {
	return name == "multi-replica-batch" || strings.HasPrefix(name, "cluster-scaling-")
}

// regress returns the percentage increase of got over base; +Inf when
// only base is 0.
func regress(base, got float64) float64 {
	if base == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (got - base) / base * 100
}

// gate checks run against base under the package's rule set, printing
// one line per comparison to w, and returns the number of failures.
func gate(w io.Writer, base, run Suite) int {
	sameHost := base.CPUs == run.CPUs && base.GOMAXPROCS == run.GOMAXPROCS
	if !sameHost {
		fmt.Fprintf(w, "benchstatgate: host differs from baseline (cpus %d vs %d, gomaxprocs %d vs %d): time gates skipped\n",
			run.CPUs, base.CPUs, run.GOMAXPROCS, base.GOMAXPROCS)
	}
	timeMetric, timeTol := "ns/op", float64(kernelTimeTol)
	if base.Serving {
		timeMetric, timeTol = "p50_ms", servingTimeTol
	}
	names := make([]string, 0, len(base.Rows)+len(run.Rows))
	for name := range base.Rows {
		names = append(names, name)
	}
	for name := range run.Rows {
		if _, ok := base.Rows[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	failed := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(w, "benchstatgate: FAIL "+format+"\n", args...)
		failed++
	}
	check := func(name, metric string, got, want, tol float64) {
		if regress(want, got) > tol {
			fail("%s %s %.1f vs baseline %.1f (tol %.0f%%)", name, metric, got, want, tol)
			return
		}
		fmt.Fprintf(w, "benchstatgate: ok   %s %s %.1f (baseline %.1f, tol %.0f%%)\n", name, metric, got, want, tol)
	}
	for _, name := range names {
		want, inBase := base.Rows[name]
		got, inRun := run.Rows[name]
		switch {
		case !inRun:
			fail("%s: baseline row missing from this run", name)
			continue
		case !inBase:
			fmt.Fprintf(w, "benchstatgate: warning: %s: not in baseline, not gated until a rebaselined file is committed\n", name)
			continue
		case got.Requests != want.Requests:
			fail("%s: measured at %d requests vs %d in baseline", name, got.Requests, want.Requests)
			continue
		}
		if got.Errors > want.Errors {
			fail("%s: %d request errors vs %d in baseline", name, got.Errors, want.Errors)
		}
		tol := float64(allocTol)
		if base.Serving && replicaScenario(name) {
			tol = replicaAllocTol
		}
		check(name, "allocs/op", got.Allocs, want.Allocs, tol)
		if sameHost {
			check(name, timeMetric, got.Time, want.Time, timeTol)
		}
	}
	return failed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_kernel.json", "committed baseline JSON")
	update := flag.Bool("update", false, "rewrite the baseline from the run instead of gating")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchstatgate [-baseline file] [-update] <go-test-bench-output | swappbench-report>")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	run, err := parse(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}

	if *update {
		if !run.Serving {
			data, err = kernelBaseline(run)
			if err != nil {
				fatal(err)
			}
		}
		if err := os.WriteFile(*baselinePath, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchstatgate: baseline %s rewritten (%d rows)\n", *baselinePath, len(run.Rows))
		return
	}

	data, err = os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	base, err := parse(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *baselinePath, err))
	}
	if base.Serving != run.Serving {
		fatal(fmt.Errorf("%s and %s are not the same kind of benchmark", flag.Arg(0), *baselinePath))
	}
	if n := gate(os.Stdout, base, run); n > 0 {
		fatal(fmt.Errorf("%d gate(s) failed against %s", n, *baselinePath))
	}
	fmt.Printf("benchstatgate: pass against %s\n", *baselinePath)
}

// kernelBaseline renders a go test -bench run as BENCH_kernel.json.
func kernelBaseline(run Suite) ([]byte, error) {
	b := kernelFile{
		Description: "kernel microbenchmark baseline: ns/op and allocs/op for the GA evaluation hot path (EvalKernel objective, evaluator scoreAll) and the simulator under a cold projection (DES kernel throughput, one 128-rank IMB sweep), gated by cmd/benchstatgate in make bench-serve. allocs/op gates on every host; ns/op only on matching hardware. Regenerate with: make bench-kernel-baseline",
		Benchmarks:  map[string]kernelRow{},
	}
	b.Host.NumCPU, b.Host.GOMAXPROCS = run.CPUs, run.GOMAXPROCS
	for name, r := range run.Rows {
		b.Benchmarks[name] = kernelRow{NsPerOp: r.Time, AllocsPerOp: r.Allocs}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	return append(data, '\n'), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchstatgate:", err)
	os.Exit(1)
}
