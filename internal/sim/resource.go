package sim

// Resource is a counted server pool (semaphore) with a priority FIFO queue:
// lower priority values are served first; within a priority, arrivals are
// FIFO. It is the building block for CPUs, disks, and link schedulers.
type Resource struct {
	sim      *Sim
	capacity int
	inUse    int
	queue    []*resWaiter

	// Queueing statistics.
	totalWaits    uint64
	totalWaitTime Time
	busyTime      Time
	lastChange    Time
	lastBusy      int
	resetAt       Time
}

type resWaiter struct {
	fn      func() // runs with the server held: a process's wakeFn or an AcquireFunc continuation
	p       *Proc  // the parked process, nil for a continuation waiter
	prio    int
	arrived Time
}

// NewResource returns a resource with the given number of servers.
func NewResource(s *Sim, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{sim: s, capacity: capacity}
}

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of busy servers.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting processes.
func (r *Resource) QueueLen() int { return len(r.queue) }

// accountBusy accumulates server-busy time for utilization reporting.
func (r *Resource) accountBusy() {
	now := r.sim.now
	r.busyTime += Time(r.lastBusy) * (now - r.lastChange)
	r.lastChange = now
	r.lastBusy = r.inUse
}

// Utilization returns mean busy servers divided by capacity since the last
// ResetUsage (or simulation start).
func (r *Resource) Utilization() float64 {
	now := r.sim.now
	if now <= r.resetAt {
		return 0
	}
	busy := r.busyTime + Time(r.lastBusy)*(now-r.lastChange)
	return float64(busy) / float64(now-r.resetAt) / float64(r.capacity)
}

// ResetUsage restarts utilization accounting from now (e.g. at the end of a
// warm-up period).
func (r *Resource) ResetUsage() {
	now := r.sim.now
	r.accountBusy()
	r.busyTime = 0
	r.lastChange = now
	r.resetAt = now
	r.totalWaits = 0
	r.totalWaitTime = 0
}

// MeanWait returns the mean queueing delay over all Acquire calls that had
// to wait at least once, in simulated time. Zero if nothing ever waited.
func (r *Resource) MeanWait() Time {
	if r.totalWaits == 0 {
		return 0
	}
	return r.totalWaitTime / Time(r.totalWaits)
}

// TryAcquire claims a server without blocking, returning false if none is
// free or waiters are queued ahead.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.accountBusy()
		r.inUse++
		r.lastBusy = r.inUse
		return true
	}
	return false
}

// Acquire claims a server, blocking the process in priority-FIFO order
// until one is free. Lower prio values are served first.
func (r *Resource) Acquire(p *Proc, prio int) {
	if r.TryAcquire() {
		return
	}
	r.enqueue(&resWaiter{fn: p.wakeFn, p: p, prio: prio, arrived: r.sim.now})
	p.park()
}

// AcquireFunc is the continuation-style Acquire for callback actors: if a
// server is free (and nobody is queued ahead) fn runs synchronously with the
// server held; otherwise the continuation waits in the same priority-FIFO
// queue as blocking processes and runs (via the calendar, like a woken
// process) once a server is handed to it. The caller must eventually call
// Release from fn's continuation chain. Kernel context only.
func (r *Resource) AcquireFunc(prio int, fn func()) {
	if r.TryAcquire() {
		fn()
		return
	}
	r.enqueue(&resWaiter{fn: fn, prio: prio, arrived: r.sim.now})
}

// enqueue inserts w before the first waiter with a strictly larger prio
// value (priority-FIFO).
func (r *Resource) enqueue(w *resWaiter) {
	i := len(r.queue)
	for j, q := range r.queue {
		if q.prio > w.prio {
			i = j
			break
		}
	}
	r.queue = append(r.queue, nil)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = w
}

// Release frees a server and, if someone is waiting, hands it over.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release on idle resource")
	}
	r.accountBusy()
	for len(r.queue) > 0 {
		w := r.queue[0]
		r.queue = r.queue[1:]
		if w.p != nil && w.p.done {
			continue // waiter was killed while queued; do not strand the server on it
		}
		// The server passes directly to the waiter (inUse unchanged), and
		// its continuation runs through the calendar.
		r.totalWaits++
		r.totalWaitTime += r.sim.now - w.arrived
		r.sim.After(0, w.fn)
		return
	}
	r.inUse--
	r.lastBusy = r.inUse
}

// Use acquires a server, holds it for d, then releases it: the common
// "occupy a server for a service time" pattern.
func (r *Resource) Use(p *Proc, prio int, d Time) {
	r.Acquire(p, prio)
	p.Sleep(d)
	r.Release()
}
