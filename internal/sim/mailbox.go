package sim

// Mailbox is an unbounded FIFO of values with FIFO-ordered blocking
// receivers, the kernel analogue of a Go channel. Send may be called from
// kernel context or from a process; receivers are woken through the event
// calendar, preserving determinism.
type Mailbox struct {
	sim     *Sim
	vals    []any
	waiters []*mboxWaiter
}

type mboxWaiter struct {
	p        *Proc
	val      any  // the value handed over, valid once removed
	ok       bool // false if the wait timed out
	timer    EventID
	hasTimer bool
	removed  bool
}

// NewMailbox returns an empty mailbox bound to s.
func NewMailbox(s *Sim) *Mailbox { return &Mailbox{sim: s} }

// Len returns the number of queued (unconsumed) values.
func (m *Mailbox) Len() int { return len(m.vals) }

// Waiters returns the number of processes blocked in Recv.
func (m *Mailbox) Waiters() int { return len(m.waiters) }

// Send enqueues v and, if a receiver is waiting, schedules its wake-up at
// the current time.
func (m *Mailbox) Send(v any) {
	m.vals = append(m.vals, v)
	m.dispatch()
}

// dispatch pairs queued values with queued waiters.
func (m *Mailbox) dispatch() {
	for len(m.vals) > 0 && len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		if w.removed {
			continue
		}
		w.removed = true
		w.val, w.ok = m.vals[0], true
		m.vals = m.vals[1:]
		if w.hasTimer {
			m.sim.Cancel(w.timer)
			w.timer = EventID{} // drop the stale handle; the slot will be recycled
			w.hasTimer = false
		}
		m.sim.After(0, w.p.wakeFn)
	}
}

// Recv blocks the calling process until a value is available and returns it.
func (m *Mailbox) Recv(p *Proc) any {
	v, _ := m.RecvTimeout(p, -1)
	return v
}

// TryRecv returns a queued value without blocking. ok is false if the
// mailbox is empty.
func (m *Mailbox) TryRecv() (any, bool) {
	if len(m.vals) == 0 {
		return nil, false
	}
	v := m.vals[0]
	m.vals = m.vals[1:]
	return v, true
}

// RecvTimeout blocks until a value arrives or d elapses. A negative d means
// no timeout. ok is false on timeout.
func (m *Mailbox) RecvTimeout(p *Proc, d Time) (any, bool) {
	if v, ok := m.TryRecv(); ok {
		return v, true
	}
	w := &mboxWaiter{p: p}
	m.waiters = append(m.waiters, w)
	if d >= 0 {
		w.hasTimer = true
		w.timer = m.sim.After(d, func() {
			w.timer = EventID{} // fired: the ID is stale from here on
			w.hasTimer = false
			if w.removed {
				return
			}
			w.removed = true
			p.wake()
		})
	}
	p.park()
	return w.val, w.ok
}
