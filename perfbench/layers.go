package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	swapp "repro"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/imb"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/spec"
)

// projectionLayers reports the self time of each projection layer per
// traced request, the share of the request the three compute layers
// account for, and the tracing overhead: the traced requests' median
// minus the untraced requests' median.
func projectionLayers(l metrics, p *projector) {
	n := p.tr.count(spanOp)
	self := p.tr.selfByName()
	perOp := func(name string) float64 {
		if n == 0 {
			return 0
		}
		return float64(self[name]) / float64(time.Millisecond) / float64(n)
	}
	total := 0.0
	for _, s := range []string{spanPipeline, spanCharacterize, spanProject, spanRender, spanOp} {
		l.set("self."+s+"_ms", perOp(s), "ms/op")
		total += perOp(s)
	}
	share := 0.0
	if total > 0 {
		share = (perOp(spanPipeline) + perOp(spanCharacterize) + perOp(spanProject)) / total
	}
	l.set("self.compute_share", share, "ratio")
	l.set("trace.overhead_ms", p.traced.median()-p.untraced.median(), "ms")
	l.set("trace.ops", float64(len(p.traced)), "count")
}

// programCounters reads the counters the program exports through its
// obs.Scope: the GA's evaluations and memo hits, and the hit ratios of
// the layered store mounted under prefix.
func programCounters(l metrics, scope *obs.Scope, prefix string) {
	m := scope.Metrics()
	get := func(name string) int64 {
		v, _ := m.Counter(name)
		return v
	}
	evals, memo := get("ga.evaluations"), get("ga.cache_hits")
	searches := get("core.compute_projections")
	perSearch := 0.0
	if searches > 0 {
		perSearch = float64(evals) / float64(searches)
	}
	l.set("ga.evaluations", perSearch, "count/search")
	ratio{memo, evals + memo}.put(l, "ga.memo_hit_ratio")
	for _, layer := range []string{"characterisation", "profile", "surrogate"} {
		hits, misses := get(prefix+"."+layer+"_hits"), get(prefix+"."+layer+"_misses")
		ratio{hits, hits + misses}.put(l, "core.store."+layer+"_hit_ratio")
	}
}

// runtimeLayer reports the Go runtime's allocations per operation over the
// measured phase and the share of CPU the collector has used.
func runtimeLayer(l metrics, before, after *runtime.MemStats, ops int) {
	per := 0.0
	if ops > 0 {
		per = float64(after.Mallocs-before.Mallocs) / float64(ops)
	}
	l.set("go.allocs_per_op", per, "count/op")
	l.set("go.gc_cpu_fraction", after.GCCPUFraction, "ratio")
	l.set("go.peak_rss_mb", statusMB("VmHWM"), "MB")
}

// timeIt runs f n times and returns the median duration.
func timeIt(n int, f func() error) (time.Duration, error) {
	var s sample
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		s.add(time.Since(t0))
	}
	return time.Duration(s.median() * float64(time.Millisecond)), nil
}

// microLayers times calls into each layer's public functions on fixed
// inputs, the same on every workload.
func microLayers(l metrics, cfg config) error {
	hydra := arch.MustGet(arch.Hydra)
	for _, r := range []int{16, 32, 64, 128} {
		t0 := time.Now()
		if _, err := imb.Run(hydra, r, nil); err != nil {
			return fmt.Errorf("imb.Run: %w", err)
		}
		l.set(fmt.Sprintf("imb.table_s.r%d", r), time.Since(t0).Seconds(), "s")
	}

	const roundTrips = 20000
	d, err := timeIt(5, func() error {
		w, err := mpi.NewWorld(hydra, 2)
		if err != nil {
			return err
		}
		_, err = w.Run(func(r *mpi.Rank) {
			for i := 0; i < roundTrips; i++ {
				if r.ID() == 0 {
					r.Send(1, 8, 0)
					r.Recv(1, 8, 0)
				} else {
					r.Recv(0, 8, 0)
					r.Send(0, 8, 0)
				}
			}
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("mpi ping-pong: %w", err)
	}
	l.set("des.msg_ns", float64(d.Nanoseconds())/(2*roundTrips), "ns")

	d, err = timeIt(5, func() error { _, err := spec.RunSuite(hydra, true); return err })
	if err != nil {
		return fmt.Errorf("spec.RunSuite: %w", err)
	}
	l.set("spec.suite_ms", float64(d)/float64(time.Millisecond), "ms")

	ctx := context.Background()
	pipe, err := core.NewPipelineCtx(ctx, hydra, arch.MustGet(arch.Power6), []int{16}, core.Options{})
	if err != nil {
		return err
	}
	var app *core.AppModel
	d, err = timeIt(3, func() (err error) {
		app, err = pipe.CharacterizeAppCtx(ctx, nas.BT, nas.ClassC, []int{16, 32, 64, 128})
		return err
	})
	if err != nil {
		return fmt.Errorf("CharacterizeAppCtx: %w", err)
	}
	l.set("nas.profile_s", d.Seconds(), "s")

	var proj *core.Projection
	d, err = timeIt(5, func() (err error) {
		proj, err = pipe.ProjectCtx(ctx, app, 16)
		return err
	})
	if err != nil {
		return fmt.Errorf("ProjectCtx: %w", err)
	}
	l.set("ga.search_ms", float64(d)/float64(time.Millisecond), "ms")

	var render sample
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := report.MarshalProjection(proj, nil); err != nil {
			return err
		}
		render.add(time.Since(t0))
	}
	l.set("report.render_us", 1000*render.median(), "us")

	if err := serverLayer(l, proj); err != nil {
		return err
	}
	l.set("obs.count_ns", obsCount(), "ns")
	if err := durableLayer(l, cfg.scratch); err != nil {
		return err
	}
	return durableJob(l, cfg.scratch)
}

// serverLayer times the result-cache hit path: ServeHTTP into a recorder
// for one hit and for a six-hit batch, and the loopback transport's share
// of a hit sent through a client connection. The hit ratio and the count
// of rejected requests come from the server's own counters.
func serverLayer(l metrics, proj *core.Projection) error {
	// Evaluations return a fixed projection: only the serving path is timed.
	scope := obs.New("swappd")
	srv := server.New(server.Config{Obs: scope, Eval: func(_ context.Context, _ string, req swapp.Request) (*swapp.Result, error) {
		return &swapp.Result{Request: req, Projection: proj}, nil
	}})
	defer srv.Close()
	h := srv.Handler()
	keys := sweepGrid()[:6]
	serve := func(path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	for _, k := range keys {
		if code, body := serve("/v1/project", k.apiBody()); code != http.StatusOK {
			return fmt.Errorf("server prime: %d %s", code, body)
		}
	}
	var hit, batch sample
	batchBody := batchBodyOf(keys)
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		code, _ := serve("/v1/project", keys[i%len(keys)].apiBody())
		hit.add(time.Since(t0))
		if code != http.StatusOK {
			return fmt.Errorf("server hit: %d", code)
		}
		if i%10 == 0 {
			t0 = time.Now()
			code, _ = serve("/v1/batch", batchBody)
			batch.add(time.Since(t0))
			if code != http.StatusOK {
				return fmt.Errorf("server batch: %d", code)
			}
		}
	}
	l.set("server.hit_us", 1000*hit.median(), "us")
	l.set("server.batch_us", 1000*batch.median(), "us")

	// Transport: a client span around each request, a handler span inside
	// it; the client span's self time is the loopback transport.
	var handler atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		handler.Store(int64(time.Since(t0)))
	})}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln) }()
	client := newClient()
	url := "http://" + ln.Addr().String() + "/v1/project"
	var transport sample
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", strings.NewReader(keys[i%len(keys)].apiBody()))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		transport.add(time.Since(t0) - time.Duration(handler.Load()))
	}
	client.CloseIdleConnections()
	_ = hs.Close()
	<-done
	l.set("server.transport_us", 1000*transport.median(), "us")
	serverCounters(l, scope)
	return nil
}

// serverCounters reads the result cache's hit ratio and the count of
// requests the server refused.
func serverCounters(l metrics, scope *obs.Scope) {
	m := scope.Metrics()
	hits, _ := m.Counter("server.cache.result_hits")
	misses, _ := m.Counter("server.cache.result_misses")
	ratio{hits, hits + misses}.put(l, "server.result_hit_ratio")
	rejected, _ := m.Counter("server.rejected")
	l.set("server.rejected", float64(rejected), "count")
}

// batchBodyOf is a /v1/batch body projecting each request.
func batchBodyOf(rs []request) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.apiBody()
	}
	return `{"requests":[` + strings.Join(parts, ",") + `]}`
}

// newClient is one client connection to a loopback server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// obsCount is the cost of one obs.(*Scope).Count with two goroutines
// counting into the same scope.
func obsCount() float64 {
	const perG = 200000
	scope := obs.New("perfbench")
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				scope.Count("perfbench.count", 1)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / (2 * perG)
}

// durableJob submits jobRequest to a durable replica through ServeHTTP
// and polls for its result: the time from submission to a checked result,
// and the journal bytes and records the job wrote. Every GA checkpoint
// of the search is one journal record, fsynced.
func durableJob(l metrics, scratch string) error {
	dir := filepath.Join(scratch, "swappd")
	scope := obs.New("swappd")
	srv, err := server.NewDurable(server.Config{DataDir: dir, Obs: scope})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	call := func(method, path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	t0 := time.Now()
	code, body := call(http.MethodPost, "/v1/jobs", `{"op":"project","request":`+jobRequest.apiBody()+`}`)
	var st struct {
		ID string `json:"id"`
	}
	if code != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
		return fmt.Errorf("job submission: %d %s", code, body)
	}
	for code = http.StatusServiceUnavailable; code == http.StatusServiceUnavailable; {
		if time.Since(t0) > time.Minute {
			return fmt.Errorf("job %s did not finish", st.ID)
		}
		time.Sleep(5 * time.Millisecond)
		code, body = call(http.MethodGet, "/v1/jobs/"+st.ID+"/result", "")
	}
	took := time.Since(t0)
	if code != http.StatusOK || !matches(jobRequest, body) {
		return fmt.Errorf("job %s: status %d or wrong document", st.ID, code)
	}
	records, _ := scope.Metrics().Counter("durable.wal_records")
	l.set("durable.job_ms", float64(took)/float64(time.Millisecond), "ms")
	l.set("durable.bytes_per_job", float64(dirBytes(filepath.Join(dir, "journal"))), "B")
	l.set("durable.records_per_job", float64(records), "count")
	return nil
}

// durableLayer times durable.(*WAL).Append with an fsync per record, the
// journal's default, on 4 KiB records.
func durableLayer(l metrics, scratch string) error {
	dir := filepath.Join(scratch, "wal")
	w, err := durable.Open(dir, durable.Options{})
	if err != nil {
		return err
	}
	rec := bytes.Repeat([]byte{'x'}, 4<<10)
	var s sample
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if err := w.Append(rec); err != nil {
			w.Close()
			return err
		}
		s.add(time.Since(t0))
	}
	if err := w.Close(); err != nil {
		return err
	}
	l.set("durable.append_us", 1000*s.median(), "us")
	return os.RemoveAll(dir)
}

// perLayer is every per-layer metric a traced run reports, with its unit.
var perLayer = map[string]string{
	"imb.table_s.r16": "s", "imb.table_s.r32": "s", "imb.table_s.r64": "s", "imb.table_s.r128": "s",
	"imb.tables":    "count/op",
	"des.msg_ns":    "ns",
	"spec.suite_ms": "ms",
	"nas.profile_s": "s",
	"ga.search_ms":  "ms", "ga.evaluations": "count/search",
	"ga.memo_hit_ratio": "ratio", "ga.memo_hit_ratio_base": "count",
	"core.store.characterisation_hit_ratio": "ratio", "core.store.characterisation_hit_ratio_base": "count",
	"core.store.profile_hit_ratio": "ratio", "core.store.profile_hit_ratio_base": "count",
	"core.store.surrogate_hit_ratio": "ratio", "core.store.surrogate_hit_ratio_base": "count",
	"report.render_us": "us",
	"server.hit_us":    "us", "server.transport_us": "us", "server.batch_us": "us",
	"server.result_hit_ratio": "ratio", "server.result_hit_ratio_base": "count", "server.rejected": "count",
	"obs.count_ns":      "ns",
	"durable.append_us": "us", "durable.job_ms": "ms", "durable.bytes_per_job": "B", "durable.records_per_job": "count",
	"go.allocs_per_op": "count/op", "go.gc_cpu_fraction": "ratio", "go.peak_rss_mb": "MB",
	"self.pipeline_ms": "ms/op", "self.characterize_ms": "ms/op", "self.project_ms": "ms/op",
	"self.render_ms": "ms/op", "self.op_ms": "ms/op", "self.compute_share": "ratio",
	"trace.overhead_ms": "ms", "trace.ops": "count",
}

// checkMetrics reports any difference between m and the metric names and
// units of want.
func checkMetrics(m metrics, want map[string]string) error {
	for n, u := range want {
		if got, ok := m[n]; !ok || got.Unit != u {
			return fmt.Errorf("metric %s: got %+v, want unit %q", n, got, u)
		}
	}
	for n := range m {
		if _, ok := want[n]; !ok {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	return nil
}
