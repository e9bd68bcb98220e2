// Package trace is the transaction-span observability layer: it follows one
// client request from the terminal through the server worker thread, the
// lock and cache-fusion (GCS) waits, the pager/disk/iSCSI path and back
// across the fabric, attributing every nanosecond of the response time to a
// phase. Aggregates land in per-phase histograms (p50/p95/p99, not just
// means) that core.Metrics folds into its LatencyBreakdown; raw span
// segments can additionally be exported as a JSONL event stream or a Chrome
// trace_event file (see export.go). Queue occupancy is observed by
// internal/telemetry.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Model code calls the package-level
//     Enter/Exit helpers, which reduce to a single nil-interface check when
//     the current process carries no span (the same idiom as sim.Tracer).
//   - Non-perturbing when enabled. Span bookkeeping reads the clock and
//     writes collector memory; it never schedules events, blocks, or draws
//     random numbers, so the simulated trajectory — and therefore every
//     metric outside the breakdown itself — is bit-identical with tracing
//     on or off.
//   - Deterministic. Sampling is a modular counter on the run's request
//     stream, not a random draw; two runs of the same seed trace the same
//     transactions.
//
// Phase attribution uses self-time semantics: phases nest (a disk read
// inside a GCS fill, a CPU burst inside a disk setup), and each frame is
// charged only for the time no inner frame was active, so the per-phase
// durations of a span always sum to its server residency. The client-side
// remainder — request and reply wire time, NIC/router queueing, protocol
// processing before the worker runs — is the fabric phase, computed at
// span finish as total minus server residency.
package trace

import (
	"sort"
	"sync"

	"dclue/internal/sim"
	"dclue/internal/stats"
)

// Phase identifies where a slice of a transaction's response time went.
type Phase int

const (
	// PhaseCPU is time executing (or queued for) the node CPUs.
	PhaseCPU Phase = iota
	// PhaseLock is time acquiring global locks, including remote lock
	// message round-trips and deadlock-timeout waits.
	PhaseLock
	// PhaseGCS is time in the cache-fusion block protocol: directory
	// exchanges, block transfers and fetch retries (disk reads issued on
	// behalf of a fetch charge PhaseDisk instead).
	PhaseGCS
	// PhaseDisk is time in storage: local drive access, iSCSI command
	// round-trips, SAN hops and log-durability waits.
	PhaseDisk
	// PhaseFabric is the client-observed remainder: request/reply wire and
	// queueing time plus protocol processing outside the worker thread.
	PhaseFabric
	// PhaseOther is server residency not claimed by any phase above
	// (scheduling gaps between instrumented sections; normally tiny).
	PhaseOther

	NumPhases = int(PhaseOther) + 1
)

// String returns the short phase label used in tables and exports.
func (ph Phase) String() string {
	switch ph {
	case PhaseCPU:
		return "cpu"
	case PhaseLock:
		return "lock"
	case PhaseGCS:
		return "gcs"
	case PhaseDisk:
		return "disk"
	case PhaseFabric:
		return "fabric"
	case PhaseOther:
		return "other"
	}
	return "unknown"
}

// Enter pushes a phase frame on the span carried by p, if any. The
// disabled-tracing fast path is the single nil-interface check.
func Enter(p *sim.Proc, ph Phase) {
	if v := p.Span(); v != nil {
		if s, ok := v.(*Span); ok {
			s.Enter(p.Now(), ph)
		}
	}
}

// Exit pops the current phase frame on the span carried by p, if any.
func Exit(p *sim.Proc) {
	if v := p.Span(); v != nil {
		if s, ok := v.(*Span); ok {
			s.Exit(p.Now())
		}
	}
}

// Collector gathers runs. One Collector may serve many concurrent cluster
// simulations (a parallel sweep); each simulation owns a Run and touches
// only that, so the collector lock is taken only at run creation and export.
type Collector struct {
	mu          sync.Mutex
	sampleEvery uint64
	keepEvents  bool
	maxEvents   int
	runs        []*Run
}

// NewCollector returns a collector sampling every n-th transaction per run
// (n <= 1 traces every transaction). Only histograms are kept; call
// KeepEvents to also retain exportable span segments.
func NewCollector(n int) *Collector {
	if n < 1 {
		n = 1
	}
	return &Collector{sampleEvery: uint64(n), maxEvents: 1 << 20}
}

// SampleEvery returns the sampling stride.
func (c *Collector) SampleEvery() int { return int(c.sampleEvery) }

// KeepEvents enables per-span segment retention for export, with at most
// max records per run (max <= 0 keeps the default cap). Call before the
// runs start.
func (c *Collector) KeepEvents(max int) {
	c.keepEvents = true
	if max > 0 {
		c.maxEvents = max
	}
}

// NewRun registers a new simulation run under the collector and returns its
// handle. Safe to call from concurrent sweep workers.
func (c *Collector) NewRun(label string) *Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Run{
		c:           c,
		label:       label,
		sampleEvery: c.sampleEvery,
		keepEvents:  c.keepEvents,
		maxEvents:   c.maxEvents,
	}
	for i := range r.phase {
		// 0.25 ms buckets to 8 s: finer than the scaled response times the
		// model produces, with range to spare for overloaded configurations
		// whose tails run to seconds (means stay exact regardless — the
		// histogram keeps a full tally alongside the buckets).
		r.phase[i] = stats.NewHistogram(0.25, 32000)
	}
	r.total = stats.NewHistogram(0.25, 32000)
	c.runs = append(c.runs, r)
	return r
}

// Runs returns every registered run sorted by label, so the export order
// (and the pids the exports assign from it) is independent of the order in
// which a parallel sweep registered the runs.
func (c *Collector) Runs() []*Run {
	c.mu.Lock()
	out := append([]*Run(nil), c.runs...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// Run is the per-simulation trace sink: per-phase histograms and retained
// span segments. All methods are called from the single kernel goroutine of
// one simulation, so no locking is needed.
type Run struct {
	c           *Collector
	label       string
	sampleEvery uint64
	keepEvents  bool
	maxEvents   int

	reqSeen uint64 // transactions offered to the sampler
	nextID  uint64 // span ids
	sampled uint64 // spans finished and recorded

	phase [NumPhases]*stats.Histogram // per-phase self time, ms
	total *stats.Histogram            // span total (client-observed), ms

	events  []Event
	dropped uint64 // records lost to the maxEvents cap
}

// Event is one retained span segment (or the whole span for PhaseFabric ==
// false records with Name "txn").
type Event struct {
	SpanID uint64
	TID    int // terminal id
	Name   string
	Start  sim.Time
	Dur    sim.Time
}

// Label returns the run label given at creation.
func (r *Run) Label() string { return r.label }

// Sampled returns how many spans finished and were recorded.
func (r *Run) Sampled() uint64 { return r.sampled }

// Dropped returns how many export records were lost to the retention cap.
func (r *Run) Dropped() uint64 { return r.dropped }

// StartSpan offers one transaction to the sampler at its send time and
// returns a span for it, or nil when the transaction is not sampled. tid
// identifies the issuing terminal (export thread id).
func (r *Run) StartSpan(now sim.Time, tid int) *Span {
	r.reqSeen++
	if (r.reqSeen-1)%r.sampleEvery != 0 {
		return nil
	}
	r.nextID++
	return &Span{run: r, id: r.nextID, tid: tid, start: now}
}

// PhaseMeanMs returns the mean self time of a phase across sampled spans.
func (r *Run) PhaseMeanMs(ph Phase) float64 { return r.phase[ph].Mean() }

// PhaseQuantileMs returns an approximate per-phase quantile (ms).
func (r *Run) PhaseQuantileMs(ph Phase, q float64) float64 { return r.phase[ph].Quantile(q) }

// TotalMeanMs returns the mean client-observed span duration (ms).
func (r *Run) TotalMeanMs() float64 { return r.total.Mean() }

// TotalQuantileMs returns an approximate quantile of span totals (ms).
func (r *Run) TotalQuantileMs(q float64) float64 { return r.total.Quantile(q) }

// addEvent retains one export record under the cap.
func (r *Run) addEvent(e Event) {
	if len(r.events) >= r.maxEvents {
		r.dropped++
		return
	}
	r.events = append(r.events, e)
}

// maxSpanDepth bounds phase nesting; the instrumented stack nests at most
// GCS → disk → CPU plus slack.
const maxSpanDepth = 8

// Span tracks one sampled transaction from terminal send to terminal
// receive. The terminal creates it (StartSpan), the server worker carries it
// (sim.Proc.SetSpan) between BeginServer and EndServer, and the terminal
// finishes it when the reply arrives. Phase frames accumulate self time:
// entering a nested phase suspends the charge to the outer one.
type Span struct {
	run         *Run
	id          uint64
	tid         int
	start       sim.Time
	serverStart sim.Time
	serverEnd   sim.Time

	inServer bool
	mark     sim.Time // start of the currently-charging slice
	depth    int      // stack[0] is the PhaseOther ground frame
	stack    [maxSpanDepth]Phase

	acc [NumPhases]sim.Time
}

// ID returns the span id (unique within its run).
func (s *Span) ID() uint64 { return s.id }

// charge attributes the slice since mark to the current frame.
func (s *Span) charge(now sim.Time) {
	if !s.inServer {
		return
	}
	ph := s.stack[s.depth-1]
	if d := now - s.mark; d > 0 {
		s.acc[ph] += d
		if s.run.keepEvents && ph != PhaseOther {
			s.run.addEvent(Event{SpanID: s.id, TID: s.tid, Name: ph.String(), Start: s.mark, Dur: d})
		}
	}
	s.mark = now
}

// BeginServer marks the worker thread picking the request up.
func (s *Span) BeginServer(now sim.Time) {
	s.serverStart = now
	s.inServer = true
	s.depth = 1
	s.stack[0] = PhaseOther
	s.mark = now
}

// Enter pushes a phase frame, charging the elapsed slice to the outer one.
func (s *Span) Enter(now sim.Time, ph Phase) {
	if !s.inServer || s.depth >= maxSpanDepth {
		return
	}
	s.charge(now)
	s.stack[s.depth] = ph
	s.depth++
}

// Exit pops the current phase frame, charging it for its final slice.
func (s *Span) Exit(now sim.Time) {
	if !s.inServer || s.depth <= 1 {
		return
	}
	s.charge(now)
	s.depth--
}

// EndServer marks the worker handing the reply to the stack.
func (s *Span) EndServer(now sim.Time) {
	if !s.inServer {
		return
	}
	s.charge(now)
	s.inServer = false
	s.serverEnd = now
}

// Finish completes the span when the terminal receives the reply: the
// client-observed remainder becomes the fabric phase and every accumulator
// lands in the run's histograms. A span whose reply never arrives is simply
// never finished and never recorded (matching the response-time tally).
func (s *Span) Finish(now sim.Time) {
	if s.inServer {
		// Defensive: a reply observed before EndServer cannot happen under
		// the sequential kernel; close the books anyway.
		s.EndServer(now)
	}
	total := now - s.start
	s.acc[PhaseFabric] = total - (s.serverEnd - s.serverStart)
	r := s.run
	for ph := 0; ph < NumPhases; ph++ {
		r.phase[ph].Add(s.acc[ph].Millis())
	}
	r.total.Add(total.Millis())
	r.sampled++
	if r.keepEvents {
		r.addEvent(Event{SpanID: s.id, TID: s.tid, Name: "txn", Start: s.start, Dur: total})
	}
}

// PhaseTime returns the accumulated self time of a phase so far (test and
// export hook; PhaseFabric is only set by Finish).
func (s *Span) PhaseTime(ph Phase) sim.Time { return s.acc[ph] }
