// Package telemetry is the unified metrics registry: deterministic,
// sim-time-stamped utilization and occupancy instruments threaded through
// every simulated component — links and router ports (busy time and bytes
// attributed to traffic class), queues (occupancy), CPUs (thread vs IRQ
// busy), disks (per-spindle utilization), the cache-fusion GCS (message
// rates and lock waits) and the recovery coordinator (phase timelines).
//
// The contract mirrors the trace layer's: a run carries a nil *Registry by
// default, every hot-path hook site guards with `if tel != nil` (enforced
// by the telemnil dcluevet analyzer), and instruments do pure bookkeeping
// inside existing event handlers — no calendar events, no randomness, no
// allocation after registration — so an instrumented run is provably
// bit-identical to an uninstrumented one (Metrics.FingerprintSansObs is
// the regression hook).
//
// Attribution is exact by construction: the link hook receives the very
// same integer busy slice the link adds to its own busy-time counter and
// credits it to exactly one traffic class, so the per-class sums equal each
// link's total busy time with no rounding.
package telemetry

import (
	"sync"

	"dclue/internal/sim"
	"dclue/internal/stats"
)

// Class is the traffic class a packet belongs to for attribution purposes:
// which *workload* put it on the fabric. It is deliberately distinct from
// the QoS class (netsim.Class) that decides queueing priority — the paper's
// fabric-sharing question is exactly how these workloads interfere inside
// the same best-effort QoS class.
type Class uint8

const (
	// ClassOther covers traffic with no explicit attribution: pure
	// transport overhead (ACKs and control segments inherit their
	// connection's class instead, so in practice Other stays near zero).
	ClassOther Class = iota
	// ClassIPC is cache-fusion GCS messaging between DP nodes.
	ClassIPC
	// ClassISCSI is storage traffic between DP nodes and their enclosures.
	ClassISCSI
	// ClassClient is terminal (client/server) request/response traffic.
	ClassClient
	// ClassFTP is the bulk FTP cross traffic.
	ClassFTP
	// ClassHeartbeat is membership heartbeat traffic.
	ClassHeartbeat

	// NumClasses sizes per-class arrays.
	NumClasses = 6
)

var classNames = [NumClasses]string{"other", "ipc", "iscsi", "client", "ftp", "heartbeat"}

// String returns the class's export label.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "other"
}

// Classes lists every class in export order.
func Classes() [NumClasses]Class {
	return [NumClasses]Class{ClassOther, ClassIPC, ClassISCSI, ClassClient, ClassFTP, ClassHeartbeat}
}

// Collector gathers telemetry registries across the runs of a sweep: set
// one on Params.Telemetry (or Options.Telemetry) and every run registers
// its components and accumulates utilization into a private Registry. A
// positive bucket width additionally records per-bucket timelines
// exportable as JSONL (WriteFile); bucket 0 keeps scalars only.
//
// A nil *Collector is the fast path: no registry is created and every hook
// site short-circuits on its nil instrument handle.
type Collector struct {
	mu     sync.Mutex
	bucket sim.Time
	regs   []*Registry
	sealed []*Registry
}

// NewCollector returns a collector with the given timeline bucket width
// (0 disables timelines, keeping end-of-run scalars only).
func NewCollector(bucket sim.Time) *Collector {
	if bucket < 0 {
		bucket = 0
	}
	return &Collector{bucket: bucket}
}

// Bucket returns the timeline bucket width (0 = scalars only).
func (c *Collector) Bucket() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bucket
}

// NewRegistry creates the per-run registry labeled label. Safe to call from
// concurrent sweep workers; each registry itself is then owned by its run's
// single simulation goroutine.
func (c *Collector) NewRegistry(label string) *Registry {
	r := &Registry{label: label, bucket: c.bucket}
	c.mu.Lock()
	c.regs = append(c.regs, r)
	c.mu.Unlock()
	return r
}

// Registries returns every registry created so far, sorted by label so the
// export order is independent of sweep scheduling.
func (c *Collector) Registries() []*Registry {
	c.mu.Lock()
	out := make([]*Registry, len(c.regs))
	copy(out, c.regs)
	c.mu.Unlock()
	sortRegistries(out)
	return out
}

// Registry holds one run's instruments. Registration happens once at
// cluster construction (under no concurrency); the hook methods on the
// instruments it hands out are then called from the run's simulation
// goroutine only, so none of them lock.
type Registry struct {
	label  string
	bucket sim.Time

	links  []*LinkTel
	queues []*QueueTel
	cpus   []*CPUTel
	disks  []*DiskTel
	gcs    []*GCSTel
	phases []PhaseEvent
}

// Label returns the run label the registry was created with.
func (r *Registry) Label() string { return r.label }

// Bucket returns the timeline bucket width (0 = scalars only).
func (r *Registry) Bucket() sim.Time { return r.bucket }

// NewLink registers a link (or router-port) instrument.
func (r *Registry) NewLink(name string) *LinkTel {
	l := &LinkTel{Name: name}
	if r.bucket > 0 {
		for c := range l.tl {
			l.tl[c] = stats.NewBucketed(r.bucket)
		}
	}
	r.links = append(r.links, l)
	return l
}

// NewQueue registers a queue-occupancy instrument.
func (r *Registry) NewQueue(name string) *QueueTel {
	q := &QueueTel{Name: name, tl: stats.NewBucketed(r.bucket)}
	r.queues = append(r.queues, q)
	return q
}

// NewCPU registers a per-node CPU instrument.
func (r *Registry) NewCPU(name string) *CPUTel {
	c := &CPUTel{Name: name, tlThread: stats.NewBucketed(r.bucket), tlIRQ: stats.NewBucketed(r.bucket)}
	r.cpus = append(r.cpus, c)
	return c
}

// NewDisk registers a per-spindle disk instrument.
func (r *Registry) NewDisk(name string) *DiskTel {
	d := &DiskTel{Name: name, tl: stats.NewBucketed(r.bucket)}
	r.disks = append(r.disks, d)
	return d
}

// NewGCS registers a per-node GCS instrument.
func (r *Registry) NewGCS(name string) *GCSTel {
	g := &GCSTel{
		Name:  name,
		tlCtl: stats.NewBucketed(r.bucket), tlData: stats.NewBucketed(r.bucket),
		tlWait: stats.NewBucketed(r.bucket),
	}
	r.gcs = append(r.gcs, g)
	return g
}

// RecordPhase appends one component-phase interval to the run's phase
// timeline (recovery's fence/remaster/replay/open spans).
func (r *Registry) RecordPhase(component, phase string, start, end sim.Time) {
	r.phases = append(r.phases, PhaseEvent{Component: component, Phase: phase, Start: start, End: end})
}

// Links returns the link instruments in registration order.
func (r *Registry) Links() []*LinkTel { return r.links }

// Queues returns the queue instruments in registration order.
func (r *Registry) Queues() []*QueueTel { return r.queues }

// CPUs returns the CPU instruments in registration order.
func (r *Registry) CPUs() []*CPUTel { return r.cpus }

// Disks returns the disk instruments in registration order.
func (r *Registry) Disks() []*DiskTel { return r.disks }

// GCS returns the GCS instruments in registration order.
func (r *Registry) GCS() []*GCSTel { return r.gcs }

// Phases returns the recorded phase intervals in record order.
func (r *Registry) Phases() []PhaseEvent { return r.phases }

// LinkTel attributes a link's wire time to traffic classes. OnTransmit is
// fed the exact integer busy slice the link itself accounts, so
// sum(Busy) == the link's own busy-time counter with no rounding.
type LinkTel struct {
	Name  string
	Busy  [NumClasses]sim.Time
	Bytes [NumClasses]uint64
	Pkts  [NumClasses]uint64

	tl [NumClasses]*stats.Bucketed // busy seconds per bucket
}

// OnTransmit records one packet's serialization interval [from, to)
// attributed to class cls.
func (l *LinkTel) OnTransmit(cls Class, from, to sim.Time, bytes int) {
	if cls >= NumClasses {
		cls = ClassOther
	}
	l.Busy[cls] += to - from
	l.Bytes[cls] += uint64(bytes)
	l.Pkts[cls]++
	if tl := l.tl[cls]; tl != nil {
		tl.AddSpan(from, to, (to - from).Seconds())
	}
}

// BusyTotal returns the summed per-class busy time.
func (l *LinkTel) BusyTotal() sim.Time {
	var t sim.Time
	for _, b := range l.Busy {
		t += b
	}
	return t
}

// Timeline returns the class's busy-seconds-per-bucket timeline (nil when
// timelines are disabled).
func (l *LinkTel) Timeline(cls Class) *stats.Bucketed { return l.tl[cls] }

// QueueTel tracks a queue's byte occupancy: time-weighted mean/max scalars
// plus an optional byte-seconds-per-bucket timeline.
type QueueTel struct {
	Name string
	Occ  stats.TimeWeighted

	tl      *stats.Bucketed // byte-seconds per bucket
	last    sim.Time
	lastVal float64
}

// OnDepth records that the queue's occupancy changed to bytes at now.
func (q *QueueTel) OnDepth(now sim.Time, bytes int) {
	if q.tl != nil && now > q.last {
		q.tl.AddSpan(q.last, now, q.lastVal*(now-q.last).Seconds())
	}
	q.last, q.lastVal = now, float64(bytes)
	q.Occ.Set(now, float64(bytes))
}

// Timeline returns the byte-seconds-per-bucket timeline (nil when
// timelines are disabled).
func (q *QueueTel) Timeline() *stats.Bucketed { return q.tl }

// CPUTel splits a node CPU's busy time into thread (DB work) and IRQ
// (per-packet protocol) components.
type CPUTel struct {
	Name       string
	ThreadBusy sim.Time
	IRQBusy    sim.Time

	tlThread, tlIRQ *stats.Bucketed // busy seconds per bucket
}

// OnBusy records one busy interval [from, to); irq selects the component.
func (c *CPUTel) OnBusy(irq bool, from, to sim.Time) {
	d := to - from
	if irq {
		c.IRQBusy += d
		if c.tlIRQ != nil {
			c.tlIRQ.AddSpan(from, to, d.Seconds())
		}
		return
	}
	c.ThreadBusy += d
	if c.tlThread != nil {
		c.tlThread.AddSpan(from, to, d.Seconds())
	}
}

// Timeline returns the component's busy-seconds-per-bucket timeline.
func (c *CPUTel) Timeline(irq bool) *stats.Bucketed {
	if irq {
		return c.tlIRQ
	}
	return c.tlThread
}

// DiskTel tracks one spindle's (or log device's) service utilization.
type DiskTel struct {
	Name   string
	Busy   sim.Time
	Reads  uint64
	Writes uint64

	tl *stats.Bucketed // busy seconds per bucket
}

// OnIO records one service interval [from, to).
func (d *DiskTel) OnIO(from, to sim.Time, write bool) {
	d.Busy += to - from
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	if d.tl != nil {
		d.tl.AddSpan(from, to, (to - from).Seconds())
	}
}

// Timeline returns the busy-seconds-per-bucket timeline.
func (d *DiskTel) Timeline() *stats.Bucketed { return d.tl }

// GCSTel tracks a node's cache-fusion messaging rates and lock-wait time.
type GCSTel struct {
	Name     string
	CtlMsgs  uint64
	DataMsgs uint64
	LockWait stats.Tally // seconds per wait

	tlCtl, tlData *stats.Bucketed // messages per bucket
	tlWait        *stats.Bucketed // wait seconds per bucket
}

// OnCtlMsg counts one control message sent at now.
func (g *GCSTel) OnCtlMsg(now sim.Time) {
	g.CtlMsgs++
	if g.tlCtl != nil {
		g.tlCtl.AddAt(now, 1)
	}
}

// OnDataMsg counts one data (block-transfer) message sent at now.
func (g *GCSTel) OnDataMsg(now sim.Time) {
	g.DataMsgs++
	if g.tlData != nil {
		g.tlData.AddAt(now, 1)
	}
}

// OnLockWait records one lock wait spanning [from, to).
func (g *GCSTel) OnLockWait(from, to sim.Time) {
	g.LockWait.Add((to - from).Seconds())
	if g.tlWait != nil {
		g.tlWait.AddSpan(from, to, (to - from).Seconds())
	}
}

// CtlTimeline returns the control-messages-per-bucket timeline.
func (g *GCSTel) CtlTimeline() *stats.Bucketed { return g.tlCtl }

// DataTimeline returns the data-messages-per-bucket timeline.
func (g *GCSTel) DataTimeline() *stats.Bucketed { return g.tlData }

// WaitTimeline returns the lock-wait-seconds-per-bucket timeline.
func (g *GCSTel) WaitTimeline() *stats.Bucketed { return g.tlWait }

// PhaseEvent is one recorded component-phase interval.
type PhaseEvent struct {
	Component string
	Phase     string
	Start     sim.Time
	End       sim.Time
}
