// Package des is a process-oriented discrete-event simulation kernel: the
// substrate under the MPI simulator. Each simulated process (an MPI rank)
// runs on a coroutine (iter.Pull) that advances a shared virtual clock by
// yielding to the kernel; the kernel resumes exactly one process at a time
// and orders all wakeups by (virtual time, sequence), so simulations are
// fully deterministic regardless of Go's scheduler. A context switch is a
// direct coroutine transfer, not a trip through the scheduler.
//
// A kernel's coroutines end with their processes unless the kernel uses a
// Pool: then a finished process parks its coroutine there for the next
// kernel's processes, so a sweep of many short simulations starts each
// coroutine once.
//
// The programming model is the classic coroutine style: a process calls
// Advance to burn virtual time (compute), and WaitSignal to block until
// another process or a scheduled event fires a Signal (communication). The
// kernel detects global deadlock — an empty event queue with processes
// still blocked — and reports who was stuck.
//
// The kernel is a hot path: one NAS characterisation or IMB sweep pushes
// tens of millions of events through it, so the event loop is built not to
// allocate. Events are values in a hand-rolled binary heap (no
// container/heap interface boxing, no per-event pointers), the two
// dominant event kinds — wake a process, fire a signal — are encoded as
// struct fields instead of closures, signals are carved out of
// kernel-owned slabs with lazily formatted names, and a process's blocked
// reason is kept as typed fields that are only rendered if a deadlock
// report actually needs them.
package des

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// event is a scheduled occurrence. Exactly one of proc, sig and fn is set:
// wake proc, fire sig, or run the generic callback. The split keeps the
// two hot kinds closure-free — a wake or a fire is two words copied into
// the heap, not a heap-allocated func value.
type event struct {
	at   units.Seconds
	seq  uint64 // tie-break: FIFO within equal timestamps
	proc *Proc
	sig  *Signal
	fn   func()
}

// before orders events by (at, seq); seq is unique, so this is total.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// procState tracks where a process is in its lifecycle.
type procState int

const (
	stateReady procState = iota
	stateRunning
	stateBlocked
	stateDone
)

// waitKind is why a blocked process is parked, kept as data so the hot
// path never formats a reason string; see Proc.waitReason.
type waitKind int

const (
	waitStart waitKind = iota
	waitAdvance
	waitSignal
)

// sigSlabSize is how many signals one kernel-owned slab holds.
const sigSlabSize = 256

// Kernel owns the virtual clock, the event queue and the processes.
type Kernel struct {
	now    units.Seconds
	seq    uint64
	events []event // binary min-heap on (at, seq)
	procs  []*Proc
	live   int
	failed error
	slab   []Signal // signal arena: NewSignal carves from here

	pool     *Pool // where finished processes park their coroutines; nil: they end
	aborting bool  // Run is unwinding parked processes
}

// NewKernel returns an empty kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() units.Seconds { return k.now }

// push inserts an event into the heap.
func (k *Kernel) push(e event) {
	k.seq++
	e.seq = k.seq
	q := append(k.events, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	k.events = q
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() event {
	q := k.events
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // clear pointers for the GC
	q = q[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && q[l].before(&q[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	k.events = q
	return top
}

// Schedule runs fn in kernel context at now+delay. Negative delays are
// clamped to zero. fn must not block; it may fire signals and schedule
// further events.
func (k *Kernel) Schedule(delay units.Seconds, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.push(event{at: k.now + delay, fn: fn})
}

// FireAt fires s at now+delay (clamped to now), without allocating a
// callback: the closure-free fast path for message-arrival events.
func (k *Kernel) FireAt(s *Signal, delay units.Seconds) {
	if delay < 0 {
		delay = 0
	}
	k.push(event{at: k.now + delay, sig: s})
}

// scheduleWake wakes p at now+delay without allocating a callback.
func (k *Kernel) scheduleWake(delay units.Seconds, p *Proc) {
	if delay < 0 {
		delay = 0
	}
	k.push(event{at: k.now + delay, proc: p})
}

// Proc is the handle a simulated process uses to interact with the kernel.
type Proc struct {
	k      *Kernel
	id     int
	kind   string
	nameID int // -1: kind IS the full name; else rendered as kind+nameID
	state  procState
	fn     func(*Proc)
	r      *runner // the coroutine running the process; nil before it starts

	// Blocked-reason data, rendered only by deadlock reports.
	waitKind waitKind
	waitDt   units.Seconds
	waitSig  *Signal
}

// ID returns the process index in spawn order.
func (p *Proc) ID() int { return p.id }

// Name returns the process's spawn name, formatting it on first use.
func (p *Proc) Name() string {
	if p.nameID < 0 {
		return p.kind
	}
	return fmt.Sprintf("%s%d", p.kind, p.nameID)
}

// Now returns the current virtual time.
func (p *Proc) Now() units.Seconds { return p.k.now }

// Kernel returns the owning kernel (for scheduling timed events).
func (p *Proc) Kernel() *Kernel { return p.k }

// waitReason renders what the process is blocked on, for deadlock reports.
func (p *Proc) waitReason() string {
	switch p.waitKind {
	case waitAdvance:
		return fmt.Sprintf("advance(%s)", units.FormatSeconds(p.waitDt))
	case waitSignal:
		return "signal:" + p.waitSig.Name()
	default:
		return "start"
	}
}

// errAborted is the panic payload used to unwind abandoned processes.
type errAborted struct{}

// block parks the process until the kernel resumes it.
func (p *Proc) block(kind waitKind, dt units.Seconds, sig *Signal) {
	p.state = stateBlocked
	p.waitKind, p.waitDt, p.waitSig = kind, dt, sig
	p.r.yield(struct{}{})
	if p.k.aborting {
		panic(errAborted{})
	}
	p.state = stateRunning
	p.waitSig = nil
}

// Advance burns dt of virtual time as local work (compute). Negative dt is
// clamped to zero; a zero advance still yields, giving same-time events a
// chance to run in deterministic order.
func (p *Proc) Advance(dt units.Seconds) {
	if dt < 0 {
		dt = 0
	}
	p.k.scheduleWake(dt, p)
	p.block(waitAdvance, dt, nil)
}

// WaitSignal blocks until s fires. If s already fired it returns
// immediately without yielding.
func (p *Proc) WaitSignal(s *Signal) {
	if s.fired {
		return
	}
	s.addWaiter(p)
	p.block(waitSignal, 0, s)
}

// Signal is a one-shot broadcast: processes wait on it, someone fires it.
// Once fired it stays fired.
//
// Signals are carved from kernel-owned slabs and named lazily: simulation
// code mints millions of them, and almost none ever shows its name.
type Signal struct {
	k     *Kernel
	kind  string
	id    int // -1: kind IS the full name; else rendered as kind#id
	fired bool

	// Waiter storage: the single-waiter case (every point-to-point
	// request) stays inline; collectives overflow into the slice.
	w0   *Proc
	more []*Proc
}

// NewSignal creates a named, unfired signal owned by the kernel.
func (k *Kernel) NewSignal(name string) *Signal { return k.newSignal(name, -1) }

// NewSignalKind creates an unfired signal lazily named kind#id: the
// allocation-free spelling of NewSignal(fmt.Sprintf("%s#%d", kind, id)).
func (k *Kernel) NewSignalKind(kind string, id int) *Signal { return k.newSignal(kind, id) }

// newSignal carves a signal from the kernel's slab.
func (k *Kernel) newSignal(kind string, id int) *Signal {
	if len(k.slab) == 0 {
		k.slab = make([]Signal, sigSlabSize)
	}
	s := &k.slab[0]
	k.slab = k.slab[1:]
	s.k, s.kind, s.id = k, kind, id
	return s
}

// Name returns the signal's name, formatting it on first use.
func (s *Signal) Name() string {
	if s.id < 0 {
		return s.kind
	}
	return fmt.Sprintf("%s#%d", s.kind, s.id)
}

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// addWaiter registers p to be woken when the signal fires.
func (s *Signal) addWaiter(p *Proc) {
	if s.w0 == nil && len(s.more) == 0 {
		s.w0 = p
		return
	}
	s.more = append(s.more, p)
}

// Fire marks the signal fired and schedules every waiter to resume at the
// current virtual time (in wait order). Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	if s.w0 != nil {
		s.k.scheduleWake(0, s.w0)
		s.w0 = nil
	}
	for _, w := range s.more {
		s.k.scheduleWake(0, w)
	}
	s.more = nil
}

// Spawn registers a process to start at virtual time zero. It must be
// called before Run.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.spawn(name, -1, fn)
}

// SpawnKind is Spawn with a lazily formatted name kind+id — the
// allocation-free spelling of Spawn(fmt.Sprintf("%s%d", kind, id), fn)
// for simulations that mint processes by the million.
func (k *Kernel) SpawnKind(kind string, id int, fn func(*Proc)) *Proc {
	return k.spawn(kind, id, fn)
}

func (k *Kernel) spawn(kind string, nameID int, fn func(*Proc)) *Proc {
	p := &Proc{
		k:      k,
		id:     len(k.procs),
		kind:   kind,
		nameID: nameID,
		state:  stateReady,
		fn:     fn,
	}
	k.procs = append(k.procs, p)
	k.live++
	// First resume event at t=0, in spawn order.
	k.scheduleWake(0, p)
	return p
}

// Run drives the simulation until every process finishes. It returns an
// error on deadlock (blocked processes with an empty event queue) or if a
// process panicked.
func (k *Kernel) Run() error {
	for len(k.events) > 0 {
		e := k.pop()
		if e.at < k.now {
			return fmt.Errorf("des: time went backwards: %v < %v", e.at, k.now)
		}
		k.now = e.at
		switch {
		case e.proc != nil:
			k.wake(e.proc)
		case e.sig != nil:
			e.sig.Fire()
		default:
			e.fn()
		}
		if k.failed != nil {
			k.abandonBlocked()
			return k.failed
		}
	}
	if k.live > 0 {
		stuck := k.blockedReport()
		k.abandonBlocked()
		return fmt.Errorf("des: deadlock at t=%s with %d blocked processes:\n%s",
			units.FormatSeconds(k.now), k.live, stuck)
	}
	return nil
}

// blockedReport lists still-blocked processes and what they wait on.
func (k *Kernel) blockedReport() string {
	var lines []string
	for _, p := range k.procs {
		if p.state == stateBlocked || p.state == stateReady {
			lines = append(lines, fmt.Sprintf("  %s: waiting on %s", p.Name(), p.waitReason()))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// abandonBlocked unwinds every parked process so Run leaks nothing: a
// blocked process resumes into an errAborted panic, which ends it (and
// frees its coroutine); a process that never started just ends.
func (k *Kernel) abandonBlocked() {
	k.aborting = true
	for _, p := range k.procs {
		switch p.state {
		case stateBlocked:
			p.r.resume()
		case stateReady:
			p.state = stateDone
			k.live--
		}
	}
}
