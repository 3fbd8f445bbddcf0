package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

// Span names of one projection's layers. pipeline is core.NewPipelineCtx
// (the SPEC suites and the IMB tables of both machines), characterize is
// Pipeline.CharacterizeAppCtx (the NAS profile runs), project is
// Pipeline.ProjectCtx (the GA surrogate search and the communication
// model) and render is report.MarshalProjection.
const (
	spanOp           = "op"
	spanPipeline     = "pipeline"
	spanCharacterize = "characterize"
	spanProject      = "project"
	spanRender       = "render"
)

// projection runs one request through the layers the way swapp.Project
// does, with a span around each call, and returns the rendered document
// and the pipeline it built.
// st may be nil (no layered store) and scope nil (the program's own
// instrumentation off).
func projection(ctx context.Context, r request, st *core.Store, scope *obs.Scope, tr *tracer, parent int) ([]byte, *core.Pipeline, error) {
	base, err := arch.Get(r.base)
	if err != nil {
		return nil, nil, err
	}
	target, err := arch.Get(r.target)
	if err != nil {
		return nil, nil, err
	}
	counts := charCounts(r.bench, r.class, r.ranks)
	var pipe *core.Pipeline
	if err := tr.layer(spanPipeline, parent, func() (err error) {
		pipe, err = core.NewPipelineCtx(ctx, base, target, counts, core.Options{Store: st, Obs: scope})
		return err
	}); err != nil {
		return nil, nil, err
	}
	var app *core.AppModel
	if err := tr.layer(spanCharacterize, parent, func() (err error) {
		app, err = pipe.CharacterizeAppCtx(ctx, r.bench, r.class, counts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var proj *core.Projection
	if err := tr.layer(spanProject, parent, func() (err error) {
		proj, err = pipe.ProjectCtx(ctx, app, r.ranks)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var out []byte
	err = tr.layer(spanRender, parent, func() (err error) {
		out, err = report.MarshalProjection(proj, nil)
		return err
	})
	return out, pipe, err
}

// projector runs a workload's measured projections: it times each one,
// traces it when the run is traced, checks its document and counts the
// outcome.
type projector struct {
	o     *outcome
	log   io.Writer
	tr    *tracer    // nil in an untraced run
	scope *obs.Scope // the program's own instrumentation, on traced requests
	// A traced run traces every other request, so the difference between
	// the two medians is the tracing overhead.
	traced, untraced sample
}

func newProjector(cfg config, o *outcome) *projector {
	p := &projector{o: o, log: cfg.log}
	if cfg.traced {
		p.tr, p.scope = newTracer(), obs.New("perfbench")
	}
	return p
}

// run makes the i-th measured projection, r, through st (nil for none).
// ok is false when it failed or rendered a wrong document.
func (p *projector) run(ctx context.Context, i int, r request, st *core.Store) (d time.Duration, pipe *core.Pipeline, ok bool) {
	on := p.tr != nil && i%2 == 0
	t, sc, parent := (*tracer)(nil), (*obs.Scope)(nil), -1
	if on {
		t, sc = p.tr, p.scope
		parent = t.begin(spanOp, -1)
	}
	t0 := time.Now()
	doc, pipe, err := projection(ctx, r, st, sc, t, parent)
	d = time.Since(t0)
	t.finish(parent)
	p.o.attempted++
	if err != nil || !matches(r, doc) {
		p.o.failed++
		fmt.Fprintf(p.log, "FAILED %s err=%v\n", r.key(), err)
		return d, pipe, false
	}
	if on {
		p.traced.add(d)
	} else {
		p.untraced.add(d)
	}
	return d, pipe, true
}

//go:embed digests.json
var digestsJSON []byte

// digests maps a request key to the sha256 of its rendered projection,
// recorded with -record.
var digests = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err))
	}
	return m
}()

// digestOf hashes a rendered projection. Endpoints end the document with
// a newline and batch entries embed it without one; the digest ignores it.
func digestOf(doc []byte) string {
	sum := sha256.Sum256(bytes.TrimRight(doc, "\n"))
	return hex.EncodeToString(sum[:])
}

// matches reports whether doc is the recorded projection for r. A request
// without a recorded digest cannot be checked and does not match.
func matches(r request, doc []byte) bool {
	want, ok := digests[r.key()]
	return ok && want == digestOf(doc)
}

// recordDigests renders every request the workloads can issue, through
// one shared store, and writes their digests to path.
func recordDigests(path string, log io.Writer) error {
	st := core.NewStore(core.StoreConfig{})
	out := map[string]string{}
	for _, r := range universe() {
		doc, _, err := projection(context.Background(), r, st, nil, nil, -1)
		if err != nil {
			return fmt.Errorf("%s: %w", r.key(), err)
		}
		out[r.key()] = digestOf(doc)
		fmt.Fprintf(log, "%s %s\n", r.key(), out[r.key()])
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %q%s\n", k, out[k], sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
