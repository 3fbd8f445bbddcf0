package main

import (
	"testing"
	"time"
)

func ms(vs ...float64) sample { return sample(vs) }

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestMedianAndQuantile(t *testing.T) {
	if got := ms(3, 1, 2).median(); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := ms(4, 1, 3, 2).median(); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	s := seq(100)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := ms(1, 2, 6).mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// The percentile rule: report the highest percentile, no higher than the
// one asked for, that has at least ten samples beyond it.
func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		q    float64
		ok   bool
	}{
		{n: 19, want: 0.99, ok: false},        // the median has 9 beyond it
		{n: 20, want: 0.99, q: 0.5, ok: true}, // the median has 10
		{n: 99, want: 0.99, q: 0.5, ok: true}, // p90 has 9
		{n: 100, want: 0.99, q: 0.9, ok: true},
		{n: 999, want: 0.99, q: 0.9, ok: true}, // p99 has 9
		{n: 1000, want: 0.99, q: 0.99, ok: true},
		{n: 100000, want: 0.99, q: 0.99, ok: true}, // never above the one asked for
		{n: 100000, want: 1, q: 0.999, ok: true},
	} {
		q, ok := highestSupported(c.n, c.want)
		if q != c.q || ok != c.ok {
			t.Errorf("highestSupported(%d, %v) = %v, %v; want %v, %v", c.n, c.want, q, ok, c.q, c.ok)
		}
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
}

func TestTailFallsBack(t *testing.T) {
	if v, q := seq(200).tail(0.99); q != 0.9 || v != 180 {
		t.Errorf("tail of 200 = %v at q %v, want 180 at 0.9", v, q)
	}
	if v, q := seq(5).tail(0.9); q != 1 || v != 5 {
		t.Errorf("tail of 5 = %v at q %v, want the maximum 5 at 1", v, q)
	}
}

func iv(a, b int) interval {
	return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"leaf", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70},
		{"overlapping children count once", []interval{iv(10, 40), iv(30, 60)}, 50},
		{"nested children count once", []interval{iv(10, 60), iv(20, 30)}, 50},
		{"clipped to the parent", []interval{iv(-20, 10), iv(90, 150)}, 80},
		{"covering", []interval{iv(0, 100)}, 0},
	} {
		if got := selfTime(iv(0, 100), c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: selfTime = %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestTracerSelfByName(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "pipeline", parent: 0, start: 0, end: 60},
		{name: "project", parent: 0, start: 60, end: 90},
		{name: "op", parent: -1, start: 100, end: 150},
		{name: "pipeline", parent: 3, start: 100, end: 140},
		{name: "open", parent: 3, start: 140, end: -1}, // never closed: ignored
	}}
	got := tr.selfByName()
	want := map[string]time.Duration{"op": 20, "pipeline": 100, "project": 30}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
	if n := tr.count("op"); n != 2 {
		t.Errorf("count(op) = %d, want 2", n)
	}
	var off *tracer
	if id := off.begin("op", -1); id != -1 || len(off.selfByName()) != 0 {
		t.Error("a nil tracer records nothing")
	}
}

func TestRatioWithBase(t *testing.T) {
	m := metrics{}
	ratio{hits: 3, base: 4}.put(m, "x.hit_ratio")
	if m["x.hit_ratio"].Value != 0.75 || m["x.hit_ratio_base"].Value != 4 {
		t.Errorf("ratio = %v with base %v, want 0.75 with base 4", m["x.hit_ratio"], m["x.hit_ratio_base"])
	}
	ratio{}.put(m, "y")
	if m["y"].Value != 0 || m["y_base"].Value != 0 {
		t.Errorf("an empty base gives %v with base %v, want 0 with 0", m["y"], m["y_base"])
	}
}

func TestSeededInputs(t *testing.T) {
	a := coldRounds(newRand(7, 1), 2)
	b := coldRounds(newRand(7, 1), 2)
	c := coldRounds(newRand(8, 1), 2)
	same, differs := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differs = differs || a[i] != c[i]
	}
	if !same || !differs {
		t.Errorf("cold rounds: same seed same list %v, other seed other list %v", same, differs)
	}
	// Every round holds each app on each target once.
	for r := 0; r < 2; r++ {
		seen := map[string]bool{}
		for _, q := range a[6*r : 6*r+6] {
			seen[string(q.bench)+q.target] = true
		}
		if len(seen) != 6 {
			t.Errorf("round %d covers %d (app, target) pairs, want 6", r, len(seen))
		}
	}
}

func TestDigestsCoverUniverse(t *testing.T) {
	for _, r := range universe() {
		if _, ok := digests[r.key()]; !ok {
			t.Errorf("no recorded digest for %s", r.key())
		}
	}
	if digestOf([]byte("{}\n")) != digestOf([]byte("{}")) {
		t.Error("the digest depends on the trailing newline")
	}
}
