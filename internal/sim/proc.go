//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"sort"
	"sync"
)

// killPanic is the panic value used to unwind a killed process.
type killPanic struct{}

// Proc is a simulated process: a Go function on a stdlib coroutine
// (iter.Pull) that the kernel resumes with next and that parks with yield,
// so exactly one of them runs at any instant: process code needs no locking
// and the simulation stays deterministic.
//
// All Proc methods must be called from the process's own function.
type Proc struct {
	sim    *Sim
	name   string
	seq    uint64 // spawn order; fixes iteration order over proc sets
	done   bool
	killed bool // set by Kill: the process unwinds when park returns
	span   any
	fn     func(*Proc)
	wakeFn func()  // prebuilt wake continuation, so Sleep never allocates
	w      *worker // the coroutine running the process, from start until done
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Seq returns the spawn-order number, usable as a deterministic sort key
// when a set of processes must be torn down in a reproducible order.
func (p *Proc) Seq() uint64 { return p.seq }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.sim.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// SetSpan attaches an opaque trace context to the process (nil detaches).
// The kernel never inspects it; instrumented model code reads it back via
// Span so a transaction's span can ride along the worker executing it.
func (p *Proc) SetSpan(v any) { p.span = v }

// Span returns the trace context attached with SetSpan, or nil. The nil
// check is the entire cost of disabled tracing on instrumented paths.
func (p *Proc) Span() any { return p.span }

// Spawn creates a process that will start (via the event calendar) at the
// current simulated time. fn runs until it returns, blocks on a kernel
// primitive, or the process is killed.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, seq: s.procSeq, fn: fn}
	p.wakeFn = p.wake
	s.procSeq++
	s.procs[p] = struct{}{}
	s.After(0, p.start)
	return p
}

// worker is a pooled coroutine that runs processes one after another.
// Workers never exit: under the race detector an exited coroutine leaks the
// detector's per-goroutine state (Go 1.24 ends it without the goroutine-exit
// hook), and a cluster run spawns thousands of processes.
type worker struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc // the bound process, nil while idle
}

// idle holds the unbound workers of every simulation in the program;
// simulations on different goroutines share it, hence the lock.
var idle struct {
	sync.Mutex
	ws []*worker
}

// loop is the worker's coroutine body: run the bound process to its end,
// then park until start binds the next one.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.run()
		w.p = nil
		yield(struct{}{})
	}
}

// start binds the process to a worker and runs it until its first park.
// Called from kernel context (an event).
func (p *Proc) start() {
	if p.done {
		return // killed before its start event fired
	}
	idle.Lock()
	if n := len(idle.ws); n > 0 {
		p.w, idle.ws = idle.ws[n-1], idle.ws[:n-1]
	}
	idle.Unlock()
	if p.w == nil {
		p.w = &worker{}
		p.w.next, _ = iter.Pull(p.w.loop)
	}
	p.w.p = p
	if s := p.sim; s.tracer != nil {
		s.tracer.ProcStart(s.now, p.name)
	}
	p.wake()
}

// run executes the process function on its worker and settles its end.
func (p *Proc) run() {
	s := p.sim
	defer func() {
		r := recover()
		p.done = true
		p.fn = nil
		delete(s.procs, p)
		_, killed := r.(killPanic)
		if r != nil && !killed {
			// A real model bug: re-panic with context. iter.Pull carries
			// the panic out of the coroutine to the kernel's caller.
			panic(fmt.Sprintf("sim: process %q panicked at %v: %v", p.name, s.now, r))
		}
		if s.tracer != nil {
			s.tracer.ProcEnd(s.now, p.name, killed)
		}
	}()
	p.fn(p)
}

// park yields control to the kernel until some event calls wake, then
// unwinds the process if that wake came from kill.
func (p *Proc) park() {
	s := p.sim
	if s.current != p {
		panic(fmt.Sprintf("sim: process %q parking while not current", p.name))
	}
	s.current = nil
	p.w.yield(struct{}{})
	if p.killed {
		panic(killPanic{})
	}
}

// wake resumes a parked process and returns once it parks again or
// finishes; a finished process's worker goes back to the pool. Must be
// called from kernel context (inside an event, never from another process);
// primitives ensure this by scheduling wakes on the calendar.
func (p *Proc) wake() {
	s := p.sim
	if s.current != nil {
		panic("sim: wake from non-kernel context")
	}
	if p.done {
		return
	}
	s.current = p
	p.w.next()
	s.current = nil
	if p.done {
		idle.Lock()
		idle.ws = append(idle.ws, p.w)
		idle.Unlock()
		p.w = nil
	}
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.sim.After(d, p.wakeFn)
	p.park()
}

// SleepUntil suspends the process until absolute time t (no-op if t is in
// the past). It schedules through At directly, so a target time beyond the
// Time range is reported by At's own check rather than a wrapped delay.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.sim.now {
		return
	}
	p.sim.At(t, p.wakeFn)
	p.park()
}

// Yield reschedules the process at the current time, letting other pending
// events at this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// LiveProcs returns the number of processes that have started or are
// scheduled and have not finished.
func (s *Sim) LiveProcs() int { return len(s.procs) }

// Shutdown kills every live process. Parked processes unwind immediately
// (their deferred functions run); processes whose start event has not fired
// yet are marked dead so that event no-ops. Shutdown must be
// called from kernel context (i.e., not from inside a process), typically
// after Run returns.
func (s *Sim) Shutdown() {
	if s.current != nil {
		panic("sim: Shutdown called from inside a process")
	}
	// Kill until no live procs remain. A dying process's defers could in
	// principle spawn more work; loop defensively. Victims die in spawn
	// order, not map order: a defer that touches shared state must observe
	// the same unwind sequence in every run.
	for len(s.procs) > 0 {
		var victims []*Proc
		for p := range s.procs {
			victims = append(victims, p)
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
		for _, p := range victims {
			s.Kill(p)
		}
	}
}

// Kill terminates a single process: parked processes unwind immediately
// (their deferred functions run); a process whose start event has not fired
// is marked dead so the event no-ops. Killing a finished process is a no-op.
// Kill must be called from kernel context (inside an event callback), like
// Shutdown — model code kills processes from fault-activation events.
func (s *Sim) Kill(p *Proc) {
	if s.current != nil {
		panic("sim: Kill called from inside a process")
	}
	if p.done {
		return
	}
	if p.w == nil { // start event not fired yet
		p.done = true
		delete(s.procs, p)
		return
	}
	// Every park returns into a kill panic from here on; a deferred call
	// that parks again is woken again and unwinds from there.
	p.killed = true
	for !p.done {
		p.wake()
	}
}
