//go:build go1.23

// Processes run on iter.Pull coroutines, which need Go 1.23. The go
// directive in go.mod stays at 1.22 because the perfbench module pins
// go 1.22 and builds this module through a replace, and a main module
// cannot declare an older Go than its dependencies. This constraint gives
// the file the go1.23 language version instead; go.mod's toolchain line
// makes older toolchains fetch one that can build it.

package des

import (
	"fmt"
	"iter"
)

// wake transfers control to p until it blocks again or finishes, starting
// it on a coroutine on its first wake. Must be called from kernel context.
func (k *Kernel) wake(p *Proc) {
	if p.state == stateDone {
		return
	}
	if p.r == nil {
		p.r = k.runner(p)
	}
	p.r.resume()
}

// runner is a coroutine that runs simulated processes: one process, or —
// while its kernels use a pool — one after another.
type runner struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	p      *Proc // the process it runs; nil while parked in a pool
}

// runner hands p a coroutine parked in the kernel's pool, or starts one.
func (k *Kernel) runner(p *Proc) *runner {
	var r *runner
	if pl := k.pool; pl != nil && len(pl.idle) > 0 {
		r = pl.idle[len(pl.idle)-1]
		pl.idle = pl.idle[:len(pl.idle)-1]
	} else {
		r = &runner{}
		r.resume, r.stop = iter.Pull(r.loop)
	}
	r.p = p
	return r
}

// loop is the coroutine body: run the assigned process to its end, then
// park in the pool until the next process is assigned or the pool closes.
// Without a pool the coroutine ends with its process.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for {
		p := r.p
		p.run()
		r.p = nil
		pool := p.k.pool
		if pool == nil {
			return
		}
		pool.idle = append(pool.idle, r)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the process body, turning a panic into the kernel's
// failure and an abort into a quiet unwind.
func (p *Proc) run() {
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(errAborted); !ok {
				// A real bug in simulation code: surface it.
				k.failed = fmt.Errorf("des: process %s panicked: %v", p.Name(), r)
			}
		}
		p.state = stateDone
		k.live--
	}()
	p.state = stateRunning
	p.fn(p)
}

// Pool keeps the coroutines of finished processes so that later kernels
// run their processes on them instead of starting new ones. The zero value
// is an empty pool. A pool is not safe for concurrent use: the kernels
// that share one must run one after another. Close ends every parked
// coroutine; the owner must call it once its kernels are done.
type Pool struct {
	idle []*runner
}

// Close ends the pool's parked coroutines.
func (pl *Pool) Close() {
	for _, r := range pl.idle {
		r.stop()
	}
	pl.idle = nil
}

// UsePool makes the kernel's finished processes park their coroutines in
// pl, and its new processes start on coroutines parked there. It must be
// called before Run.
func (k *Kernel) UsePool(pl *Pool) { k.pool = pl }
