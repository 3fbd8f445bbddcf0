// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It builds against the checkout it runs in and drives the
// program in one process, on no more threads than the host has CPUs.
//
//	bash perfbench/run.sh --workload cold|sweep --seed N --seconds S --trace 0|1
//
// Workloads (the seed fixes every input; the program sees only the
// generated requests):
//
//	cold   distinct projections with no core.Store, one client, one after
//	       another: every request characterises both machines with the IMB
//	       discrete-event sweeps, profiles the app and runs the GA.
//	sweep  a procurement grid (apps x classes x paper rank counts x three
//	       targets) through one core.Store whose characterisation layer
//	       set-up filled: every projection is a surrogate-layer miss, and
//	       the first one per (app, class) fills the profile layer.
//
// The serving layers (server, obs, durable) are timed in the traced run
// of both: a served workload's sub-millisecond latencies drifted between
// runs of the same code by more than any bound a regression gate can use
// on a 2-vCPU guest.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics,
// taken from spans the benchmark opens around its calls into each layer,
// from timed calls to each layer's public functions, and from the counters
// the program exports through its obs.Scope. Every rendered projection
// and job result is checked against a sha256 digest recorded in
// digests.json; a mismatch is a failed operation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){"cold": runCold, "sweep": runSweep}

// config is one run's settings.
type config struct {
	seed     uint64
	duration time.Duration
	traced   bool
	// scratch is a private directory under the build directory for the
	// run's files (the durable replica's data directory).
	scratch string
	log     io.Writer
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e               metrics // reported with --trace 0
	layers            metrics // reported with --trace 1
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cold or sweep")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	buildDir := fs.String("build-dir", ".bench_build", "directory for the run's scratch files")
	record := fs.String("record", "", "write reference digests for every request the workloads can issue to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload cold|sweep, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	scratch, err := os.MkdirTemp(*buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := config{seed: *seed, duration: time.Duration(*seconds) * time.Second, traced: *trace == 1, scratch: scratch, log: stdout}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	steal0 := cpuStat()
	out, err := runner(cfg)
	fmt.Fprintf(stdout, "host steal=%.3f of CPU time during the run\n", stealShare(steal0, cpuStat()))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "ops attempted=%d failed=%d error_rate=%g\n", out.attempted, out.failed, errorRate(out))
	m, want := out.e2e, endToEndUnits
	if cfg.traced {
		m, want = out.layers, perLayer
	}
	m.print(stdout)
	if err := checkMetrics(m, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, m})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func errorRate(o *outcome) float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its measurement.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

func (m metrics) print(w io.Writer) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// endToEndUnits is every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms", "heavy_ms": "ms",
	"ops_per_s": "1/s", "ok_ratio": "ratio", "live_heap_mb": "MB",
}

// endToEnd fills the metrics every workload reports with --trace 0.
// main is the workload's main request kind and heavy its CPU-heavy kind;
// tailQ is the percentile the tail is read at, when the sample supports
// it. opsPerSec is the workload's throughput, setup the set-up times and
// heapMB the workload's live heap (see liveHeapMB).
// The heavy kind is reported as a mean: its requests differ in cost by
// design, and every run holds the same mix of them, so the mean is steady
// where a median would sit between two costs.
func endToEnd(o *outcome, log io.Writer, setup []float64, main, heavy sample, tailQ, opsPerSec, heapMB float64) {
	tail, q := main.tail(tailQ)
	fmt.Fprintf(log, "main requests n=%d p50=%.3fms p%g=%.3fms; heavy requests n=%d mean=%.3fms\n",
		len(main), main.median(), 100*q, tail, len(heavy), heavy.mean())
	m := metrics{}
	m.set("setup_s", sample(setup).median(), "s")
	m.set("p50_ms", main.median(), "ms")
	m.set("tail_ms", tail, "ms")
	m.set("heavy_ms", heavy.mean(), "ms")
	m.set("ops_per_s", opsPerSec, "1/s")
	m.set("ok_ratio", 1-errorRate(o), "ratio")
	m.set("live_heap_mb", heapMB, "MB")
	o.e2e = m
}

// cpuStat reads the host's aggregate CPU time counters from /proc/stat.
func cpuStat() []uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var out []uint64
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		out = append(out, v)
	}
	return out
}

// stealShare is the share of CPU time between two cpuStat readings that
// the hypervisor gave to other guests: the host stamp's noise indicator.
func stealShare(a, b []uint64) float64 {
	const steal = 7 // user nice system idle iowait irq softirq steal
	if len(a) <= steal || len(b) <= steal {
		return 0
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return 0
	}
	return float64(b[steal]-a[steal]) / float64(total)
}

// cpuModel reads the processor model name for the host stamp.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// statusMB reads a memory field of /proc/self/status (VmHWM, VmRSS), in MB.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB is the heap still reachable once the collector has run. A
// workload calls it at the end of its measured phase, while its state
// (pipeline, store) is still held: the memory that state needs.
// The peak resident set also counts garbage not yet collected, so it moves
// with when the collector ran, which host load shifts by a fifth from run
// to run; it is a per-layer figure (go.peak_rss_mb).
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
