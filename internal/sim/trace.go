package sim

import (
	"fmt"
	"io"
)

// Tracer receives kernel-level events. Tracing is off by default and costs
// one nil check per event when disabled; it exists for debugging model
// behaviour (who ran when, what woke whom) without printf-ing model code.
type Tracer interface {
	// Event fires for every executed calendar event.
	Event(t Time, seq uint64)
	// ProcStart fires when a process's coroutine begins running.
	ProcStart(t Time, name string)
	// ProcEnd fires when a process function returns or is killed.
	ProcEnd(t Time, name string, killed bool)
}

// SetTracer installs (or, with nil, removes) the tracer.
func (s *Sim) SetTracer(tr Tracer) { s.tracer = tr }

// WriterTracer writes one line per traced event to an io.Writer — the
// simplest useful Tracer.
type WriterTracer struct {
	W io.Writer
	// Procs limits output to process start/end when true (event lines are
	// voluminous).
	ProcsOnly bool
}

// Event implements Tracer.
func (w *WriterTracer) Event(t Time, seq uint64) {
	if w.ProcsOnly {
		return
	}
	fmt.Fprintf(w.W, "%v event #%d\n", t, seq)
}

// ProcStart implements Tracer.
func (w *WriterTracer) ProcStart(t Time, name string) {
	fmt.Fprintf(w.W, "%v start %s\n", t, name)
}

// ProcEnd implements Tracer.
func (w *WriterTracer) ProcEnd(t Time, name string, killed bool) {
	suffix := ""
	if killed {
		suffix = " (killed)"
	}
	fmt.Fprintf(w.W, "%v end %s%s\n", t, name, suffix)
}

// CountingTracer tallies activity per process name — cheap enough to leave
// on for a whole run when hunting for runaway processes.
type CountingTracer struct {
	Events uint64
	Starts map[string]uint64
	Ends   map[string]uint64
	Kills  map[string]uint64
}

// NewCountingTracer returns an empty counting tracer.
func NewCountingTracer() *CountingTracer {
	return &CountingTracer{
		Starts: make(map[string]uint64),
		Ends:   make(map[string]uint64),
		Kills:  make(map[string]uint64),
	}
}

// Event implements Tracer.
func (c *CountingTracer) Event(t Time, seq uint64) { c.Events++ }

// ProcStart implements Tracer.
func (c *CountingTracer) ProcStart(t Time, name string) { c.Starts[name]++ }

// ProcEnd implements Tracer.
func (c *CountingTracer) ProcEnd(t Time, name string, killed bool) {
	c.Ends[name]++
	if killed {
		c.Kills[name]++
	}
}
