package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans the benchmark opens around its calls into the
// program's layers: a name, start, end and the span that caused it. Spans
// stay in memory until the run ends. A nil tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	parent     int // index of the parent span, -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layer runs f inside a span named name under parent.
func (t *tracer) layer(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.finish(id)
	return err
}

// interval is a closed span's time range.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap one another; covered time counts once, and
// only inside the parent's own range.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			cur, open = c, true
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if open {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// selfByName sums every closed span's self time by span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		out[s.name] += selfTime(interval{s.start, s.end}, children[i])
	}
	return out
}

// count is the number of closed spans named name.
func (t *tracer) count(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			n++
		}
	}
	return n
}
