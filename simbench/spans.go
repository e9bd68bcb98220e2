package main

import (
	"sync"
	"time"
)

// span is one timed call from the benchmark into a public entry point.
// Spans of one run share the recorder's clock; Parent is -1 at the root.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  float64 // seconds since the recorder started
	End    float64
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run calls the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// sum returns the total duration of the spans with the given name.
func sumSpans(spans []span, name string) (total float64, n int) {
	for _, s := range spans {
		if s.Name == name {
			total += s.End - s.Start
			n++
		}
	}
	return total, n
}
