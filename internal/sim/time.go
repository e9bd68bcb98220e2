// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel has two layers. The lower layer is a classic event calendar: a
// 4-ary heap of (time, sequence, callback) entries executed in order by
// Run. The upper layer provides lightweight simulated processes: ordinary
// Go functions run as stdlib coroutines (iter.Pull) that the kernel resumes
// from its events, so exactly one of them (the kernel or a single process)
// is ever running.
// This keeps simulations fully deterministic while letting model code be
// written in a natural blocking style (Sleep, Wait, Acquire, ...).
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. Durations are also expressed as Time.
type Time int64

// Convenient duration units of simulated time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < 0:
		return fmt.Sprintf("-%v", -t)
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}
