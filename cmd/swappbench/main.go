// Command swappbench is the serving-layer load generator for swappd: it
// drives the projection service with a fixed mix of request
// distributions — cache-cold, shared-base warm, cache-hot, degraded-input
// and peer-replica batches — and reports per-scenario latency percentiles
// (p50/p95/p99), saturation throughput, allocations per request, request
// errors and resident set size in the BENCH_swappd.json format.
// cmd/benchstatgate gates a report against the committed baseline.
//
// Modelled on golang/benchmarks' driver/http harness: the default mode
// hosts the server in-process on a loopback listener (so allocation and
// RSS deltas come straight from runtime.MemStats), while -addr points the
// generator at an externally running swappd, in which case server-side
// memory statistics are scraped from its /debug/vars endpoint.
//
// Usage:
//
//	swappbench                        # full run, JSON to stdout
//	swappbench -out BENCH_swappd.json # rewrite the committed baseline
//	swappbench -addr localhost:8080   # drive an external swappd
//
// Scenarios (fresh server per scenario in in-process mode):
//
//	cache-cold        distinct (bench, target) requests, no artifact reuse —
//	                  every request pays the full pipeline
//	shared-base-warm  requests sharing (app, base, target) but differing in
//	                  ranks — the layered-cache sweet spot
//	cache-hot         one request repeated — the result-cache hit path
//	degraded-input    requests against fault-injected benchmark data —
//	                  the lenient/quality path
//	multi-replica-batch  3 peer-wired in-process replicas; each measured op
//	                  is one /v1/batch whose groups hash across the ring
//	cluster-scaling-{2,4,8}  the same grouped batch measured at 2, 4 and 8
//	                  peer-wired replicas — the ring-size scaling curve
//
// External mode runs only shared-base-warm and cache-hot: a remote store
// cannot be disabled, faults cannot be armed in another process, and the
// replicas of the batch scenarios are hosted in-process.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/server"
)

// The load shape is fixed, and the scenario sizes equal the committed
// baseline's: every run measures every BENCH_swappd.json row at its
// baseline request count, which the gate requires.
const (
	concurrency = 4   // client workers
	hotN        = 200 // cache-hot repetitions
	multiN      = 8   // multi-replica-batch round-trips
	scalingN    = 12  // round-trips per cluster-scaling scenario
	cacheSize   = 128 // in-process result-cache capacity
	reqTimeout  = 5 * time.Minute
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// apiReq is one request in a scenario's distribution.
type apiReq struct {
	Target string `json:"target"`
	Bench  string `json:"bench"`
	Class  string `json:"class"`
	Ranks  int    `json:"ranks"`
}

func (r apiReq) body() string {
	return fmt.Sprintf(`{"target":%q,"bench":%q,"class":%q,"ranks":%d}`,
		r.Target, r.Bench, r.Class, r.Ranks)
}

// scenario is one request distribution plus the server mode it needs.
type scenario struct {
	name     string
	note     string
	prime    []apiReq // served before measurement starts (not timed)
	reqs     []apiReq // measured, in order (never cycled: repeats would hit the result cache)
	repeat   apiReq   // when set, measured -n repetitions of one request
	n        int      // measured request count for repeat-mode scenarios
	faults   string   // faultinject spec armed for the scenario (in-process only)
	noStore  bool     // disable the layered artifact store (cache-cold baseline)
	replicas int      // when >1, host this many peer-wired replicas (in-process only)
	batch    []apiReq // when set, each measured op is one /v1/batch of these requests
}

// scenarioResult is the measured outcome, serialised into BENCH_swappd.json.
type scenarioResult struct {
	Name          string  `json:"name"`
	Note          string  `json:"note,omitempty"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	Concurrency   int     `json:"concurrency"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	RSSMB         float64 `json:"rss_mb,omitempty"`
	MemSysMB      float64 `json:"mem_sys_mb"`
}

type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type runConfig struct {
	Concurrency int    `json:"concurrency"`
	Cold        int    `json:"cold"`
	Warm        int    `json:"warm"`
	Hot         int    `json:"hot"`
	Degraded    int    `json:"degraded"`
	Multi       int    `json:"multi,omitempty"`
	Scaling     int    `json:"scaling,omitempty"`
	Mode        string `json:"mode"` // "in-process" or the external address
}

// benchFile is the versioned BENCH_swappd.json document.
type benchFile struct {
	Version     int              `json:"version"`
	Description string           `json:"description"`
	Environment environment      `json:"environment"`
	Config      runConfig        `json:"config"`
	Scenarios   []scenarioResult `json:"scenarios"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("swappbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "", "drive an external swappd at this address instead of hosting in-process")
		out     = fs.String("out", "-", "write the JSON report here (- = stdout)")
		cpuProf = fs.String("cpuprofile", "", "write a per-scenario CPU profile to <prefix>.<scenario>.pb.gz (in-process mode)")
		memProf = fs.String("memprofile", "", "write a per-scenario allocation profile to <prefix>.<scenario>.pb.gz (in-process mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*cpuProf != "" || *memProf != "") && *addr != "" {
		fmt.Fprintln(stderr, "swappbench: -cpuprofile/-memprofile profile this process; they are only meaningful in in-process mode")
		return 2
	}
	prof := profileConfig{cpuPrefix: *cpuProf, memPrefix: *memProf}

	scenarios := buildScenarios(*addr != "")
	config := runConfig{Concurrency: concurrency, Mode: modeName(*addr)}
	for _, sc := range scenarios {
		switch n := measuredCount(sc); sc.name {
		case "cache-cold":
			config.Cold = n
		case "shared-base-warm":
			config.Warm = n
		case "cache-hot":
			config.Hot = n
		case "degraded-input":
			config.Degraded = n
		case "multi-replica-batch":
			config.Multi = n
		default:
			config.Scaling = n
		}
	}
	doc := &benchFile{
		Version: 1,
		Description: "swappd serving-layer baseline: per-scenario latency percentiles, " +
			"saturation throughput, allocations per request and memory, measured by cmd/swappbench " +
			"(in-process loopback server unless config.mode names an external address). " +
			"allocs_per_op counts process-wide Mallocs per measured request and, in in-process mode, " +
			"includes the load generator's own client-side allocations — comparable across runs of the " +
			"same harness, not against external-mode runs.",
		Environment: environment{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(),
		},
		Config: config,
	}

	for _, sc := range scenarios {
		fmt.Fprintf(stderr, "swappbench: scenario %s (%d requests, c=%d)\n", sc.name, measuredCount(sc), concurrency)
		res, err := runScenario(sc, *addr, prof)
		if err != nil {
			fmt.Fprintf(stderr, "swappbench: scenario %s: %v\n", sc.name, err)
			return 1
		}
		doc.Scenarios = append(doc.Scenarios, *res)
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "swappbench: %v\n", err)
		return 1
	}
	b = append(b, '\n')
	if *out == "-" {
		_, _ = stdout.Write(b)
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintf(stderr, "swappbench: %v\n", err)
		return 1
	}
	return 0
}

func modeName(addr string) string {
	if addr == "" {
		return "in-process"
	}
	return addr
}

func measuredCount(sc scenario) int {
	if sc.n > 0 {
		return sc.n
	}
	return len(sc.reqs)
}

// ringBatch is the fixed workload of the batch scenarios: six requests
// spanning three ring groups, identical at every replica count so the
// only variable across multi-replica-batch and cluster-scaling-2/4/8 is
// the ring size itself.
var ringBatch = []apiReq{
	{Target: "bgp", Bench: "BT-MZ", Class: "C", Ranks: 16},
	{Target: "bgp", Bench: "SP-MZ", Class: "C", Ranks: 16},
	{Target: "power6-575", Bench: "BT-MZ", Class: "C", Ranks: 16},
	{Target: "power6-575", Bench: "BT-MZ", Class: "C", Ranks: 32},
	{Target: "westmere-x5670", Bench: "LU-MZ", Class: "C", Ranks: 16},
	{Target: "westmere-x5670", Bench: "SP-MZ", Class: "C", Ranks: 32},
}

// buildScenarios assembles the distributions. Unique-request scenarios
// are never cycled: a repeated request would hit the result cache and
// stop measuring what the scenario claims to.
func buildScenarios(external bool) []scenario {
	hotReq := apiReq{Target: "power6-575", Bench: "BT-MZ", Class: "C", Ranks: 16}
	var warm []apiReq
	for _, r := range []int{32, 64, 128, 4, 8, 12, 20, 24, 40, 48} {
		warm = append(warm, apiReq{Target: "power6-575", Bench: "BT-MZ", Class: "C", Ranks: r})
	}
	shared := []scenario{{
		name:  "shared-base-warm",
		note:  "requests sharing (app, base, target) with the primed one, differing only in ranks",
		prime: []apiReq{hotReq},
		reqs:  warm,
	}, {
		name:   "cache-hot",
		note:   "one request repeated: the result-cache hit path",
		prime:  []apiReq{hotReq},
		repeat: hotReq,
		n:      hotN,
	}}
	if external {
		return shared
	}

	out := []scenario{{
		name: "cache-cold",
		note: "distinct requests, layered store disabled: every request pays the full pipeline",
		reqs: []apiReq{
			{Target: "bgp", Bench: "BT-MZ", Class: "C", Ranks: 16},
			{Target: "power6-575", Bench: "SP-MZ", Class: "C", Ranks: 16},
			{Target: "westmere-x5670", Bench: "LU-MZ", Class: "C", Ranks: 16},
			{Target: "westmere-x5670", Bench: "BT-MZ", Class: "C", Ranks: 16},
			{Target: "bgp", Bench: "SP-MZ", Class: "C", Ranks: 16},
		},
		noStore: true,
	}}
	out = append(out, shared...)
	// The batch hashes to three (base, target) ring groups, so every op
	// exercises grouping plus peer forwarding. One untimed batch primes
	// the owners; the measured round-trips are then hot at every replica
	// and isolate the routing overhead itself.
	out = append(out, scenario{
		name: "multi-replica-batch",
		note: "3 peer-wired replicas; each measured op is one /v1/batch of 6 requests " +
			"spanning 3 ring groups, owners primed: grouping + forwarding overhead on the hot path",
		replicas: 3,
		batch:    ringBatch,
		n:        multiN,
	})
	// The same primed batch at 2, 4 and 8 replicas: the workload and group
	// count are fixed, so latency differences across the three scenarios
	// are attributable to ring size (more forwarding hops land off-node as
	// membership grows, while per-owner work shrinks).
	for _, replicas := range []int{2, 4, 8} {
		out = append(out, scenario{
			name: fmt.Sprintf("cluster-scaling-%d", replicas),
			note: fmt.Sprintf("%d peer-wired replicas; each measured op is one /v1/batch of 6 requests "+
				"spanning 3 ring groups, owners primed: routing overhead as the ring grows", replicas),
			replicas: replicas,
			batch:    ringBatch,
			n:        scalingN,
		})
	}
	return append(out, scenario{
		name: "degraded-input",
		note: "benchmark data fault-injected (core.spec.target=drop): the lenient/quality path",
		reqs: []apiReq{
			{Target: "bgp", Bench: "SP-MZ", Class: "C", Ranks: 16},
			{Target: "power6-575", Bench: "LU-MZ", Class: "C", Ranks: 16},
			{Target: "power6-575", Bench: "BT-MZ", Class: "C", Ranks: 24},
		},
		faults: "core.spec.target=drop",
	})
}

// profileConfig names the per-scenario pprof outputs: when a prefix is set,
// the measured window of each scenario is profiled to
// <prefix>.<scenario>.pb.gz, so a kernel win (or a future regression) is
// attributable to the functions that moved. CPU profiles cover exactly the
// measured requests; allocation profiles are the runtime's cumulative
// alloc_space profile written at scenario end, so one scenario's
// allocations are its profile diffed against the previous scenario's
// (go tool pprof -diff_base).
type profileConfig struct {
	cpuPrefix string
	memPrefix string
}

// start begins the CPU profile for one scenario's measured window.
func (p profileConfig) start(name string) (stop func() error, err error) {
	if p.cpuPrefix == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(p.cpuPrefix + "." + name + ".pb.gz")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// heap writes the allocation profile at the end of one scenario.
func (p profileConfig) heap(name string) error {
	if p.memPrefix == "" {
		return nil
	}
	f, err := os.Create(p.memPrefix + "." + name + ".pb.gz")
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // flush the final allocation records
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

// runScenario measures one scenario: fresh in-process server (or the
// external address), prime requests untimed, then the measured set on a
// bounded worker pool.
func runScenario(sc scenario, addr string, prof profileConfig) (*scenarioResult, error) {
	base := addr
	var shutdown, quiesce func()
	if base == "" {
		var err error
		if sc.replicas > 1 {
			base, shutdown, quiesce, err = startReplicas(sc)
		} else {
			base, shutdown, err = startServer(sc)
		}
		if err != nil {
			return nil, err
		}
		defer shutdown()
	}
	if sc.faults != "" {
		if err := faultinject.Arm(sc.faults); err != nil {
			return nil, err
		}
		defer faultinject.Disarm()
	}
	client := &http.Client{Timeout: reqTimeout}
	url := "http://" + strings.TrimPrefix(base, "http://") + "/v1/project"
	payload := func(r apiReq) string { return r.body() }
	if len(sc.batch) > 0 {
		url = "http://" + strings.TrimPrefix(base, "http://") + "/v1/batch"
		items := make([]string, len(sc.batch))
		for i, r := range sc.batch {
			items[i] = r.body()
		}
		body := `{"requests":[` + strings.Join(items, ",") + `]}`
		payload = func(apiReq) string { return body }
	}

	do := func(r apiReq) (time.Duration, error) {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", strings.NewReader(payload(r)))
		if err != nil {
			return 0, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(t0)
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("%s: status %d: %s", payload(r), resp.StatusCode, firstLine(body))
		}
		if len(sc.batch) > 0 {
			if err := checkBatch(body, len(sc.batch)); err != nil {
				return 0, err
			}
		}
		return d, nil
	}

	for _, r := range sc.prime {
		if _, err := do(r); err != nil {
			return nil, fmt.Errorf("prime: %w", err)
		}
	}
	if len(sc.batch) > 0 {
		// One untimed batch pays the pipeline cost of filling every group's
		// owner; the measured round-trips below then isolate routing.
		if _, err := do(apiReq{}); err != nil {
			return nil, fmt.Errorf("prime: %w", err)
		}
	}
	if quiesce != nil {
		// The prime phase's fresh computes fire asynchronous replication
		// pushes between the replicas; join them before measuring, or their
		// allocations land nondeterministically inside the measured window.
		quiesce()
	}

	reqs := sc.reqs
	if sc.n > 0 {
		reqs = make([]apiReq, sc.n)
		for i := range reqs {
			reqs[i] = sc.repeat
		}
	}

	pre, err := memSnapshot(addr, base)
	if err != nil {
		return nil, err
	}
	stopCPU, err := prof.start(sc.name)
	if err != nil {
		return nil, err
	}
	lat := make([]time.Duration, len(reqs))
	errs := make([]error, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				lat[i], errs[i] = do(reqs[i])
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(t0)
	if err := stopCPU(); err != nil {
		return nil, err
	}
	post, err := memSnapshot(addr, base)
	if err != nil {
		return nil, err
	}
	if err := prof.heap(sc.name); err != nil {
		return nil, err
	}

	var ok []time.Duration
	nerr := 0
	for i, e := range errs {
		if e != nil {
			nerr++
			continue
		}
		ok = append(ok, lat[i])
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("all %d requests failed; first: %v", len(errs), firstErr(errs))
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })

	res := &scenarioResult{
		Name:          sc.name,
		Note:          sc.note,
		Requests:      len(reqs),
		Errors:        nerr,
		Concurrency:   concurrency,
		P50Ms:         ms(percentile(ok, 0.50)),
		P95Ms:         ms(percentile(ok, 0.95)),
		P99Ms:         ms(percentile(ok, 0.99)),
		ThroughputRPS: round3(float64(len(ok)) / wall.Seconds()),
		AllocsPerOp:   round1(float64(post.mallocs-pre.mallocs) / float64(len(reqs))),
		BytesPerOp:    round1(float64(post.totalAlloc-pre.totalAlloc) / float64(len(reqs))),
		MemSysMB:      round1(float64(post.sys) / (1 << 20)),
	}
	if rss := procRSS(); rss > 0 && addr == "" {
		res.RSSMB = round1(float64(rss) / (1 << 20))
	}
	return res, nil
}

// startServer hosts a fresh projection server on a loopback listener for
// one scenario, returning its address and a shutdown function.
func startServer(sc scenario) (string, func(), error) {
	scope := obs.New("swappbench")
	srv := server.New(server.Config{
		CacheSize: cacheSize,
		Obs:       scope,

		DisableLayeredCache: sc.noStore,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() {
		_ = hs.Close()
		scope.End()
	}
	return ln.Addr().String(), stop, nil
}

// startReplicas hosts sc.replicas peer-wired projection servers on loopback
// listeners — the consistent-hash ring of DESIGN.md §13 — and returns the
// first replica's address: the load generator drives one node and lets the
// ring fan the groups out. Listeners are bound before any server is
// constructed so every replica knows the full peer list up front.
func startReplicas(sc scenario) (string, func(), func(), error) {
	n := sc.replicas
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return "", nil, nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	servers := make([]*http.Server, n)
	srvs := make([]*server.Server, n)
	scopes := make([]*obs.Scope, n)
	for i := range servers {
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		scopes[i] = obs.New(fmt.Sprintf("swappbench-replica%d", i))
		srv := server.New(server.Config{
			CacheSize: cacheSize,
			Obs:       scopes[i],
			Self:      urls[i],
			Peers:     peers,

			DisableLayeredCache: sc.noStore,
		})
		srvs[i] = srv
		servers[i] = &http.Server{Handler: srv.Handler()}
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(servers[i], lns[i])
	}
	stop := func() {
		for _, hs := range servers {
			_ = hs.Close()
		}
		for _, s := range scopes {
			s.End()
		}
	}
	quiesce := func() {
		for _, s := range srvs {
			s.WaitReplication()
		}
	}
	return lns[0].Addr().String(), stop, quiesce, nil
}

// checkBatch verifies a 200 batch envelope really carried n individual
// successes — a batch with failed entries must count as a scenario error,
// not a fast "success".
func checkBatch(body []byte, n int) error {
	var doc struct {
		Results []struct {
			Status int    `json:"status"`
			Error  string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("parsing batch response: %w", err)
	}
	if len(doc.Results) != n {
		return fmt.Errorf("batch returned %d results, want %d", len(doc.Results), n)
	}
	for i, r := range doc.Results {
		if r.Status != http.StatusOK {
			return fmt.Errorf("batch entry %d: status %d: %s", i, r.Status, r.Error)
		}
	}
	return nil
}

// memSnapshot captures the server process's allocation counters: straight
// from runtime in in-process mode, scraped from /debug/vars externally.
type memCounters struct {
	mallocs, totalAlloc, sys uint64
}

func memSnapshot(addr, base string) (memCounters, error) {
	if addr == "" {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return memCounters{mallocs: m.Mallocs, totalAlloc: m.TotalAlloc, sys: m.Sys}, nil
	}
	resp, err := http.Get("http://" + strings.TrimPrefix(base, "http://") + "/debug/vars")
	if err != nil {
		return memCounters{}, fmt.Errorf("scraping /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		MemStats struct {
			Mallocs    uint64 `json:"Mallocs"`
			TotalAlloc uint64 `json:"TotalAlloc"`
			Sys        uint64 `json:"Sys"`
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return memCounters{}, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	return memCounters{doc.MemStats.Mallocs, doc.MemStats.TotalAlloc, doc.MemStats.Sys}, nil
}

// procRSS reads the process's resident set from /proc (linux), in bytes.
func procRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// percentile returns the q-quantile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return round3(float64(d) / float64(time.Millisecond)) }
func round1(v float64) float64   { return roundTo(v, 10) }
func round3(v float64) float64   { return roundTo(v, 1000) }
func roundTo(v float64, s float64) float64 {
	if v < 0 {
		return -roundTo(-v, s)
	}
	return float64(int64(v*s+0.5)) / s
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
