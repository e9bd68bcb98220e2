package core

import (
	"fmt"
	"hash/fnv"
	"strings"

	"dclue/internal/netsim"
	"dclue/internal/sim"
	"dclue/internal/tpcc"
	"dclue/internal/trace"
)

// Metrics is everything one run reports; each paper figure reads one or two
// fields. Rates are in the scaled system; multiply throughput by the scale
// factor to compare with unscaled hardware.
type Metrics struct {
	Nodes    int
	Affinity float64

	TpmC         float64 // scaled new-orders committed per simured minute
	TotalTxnRate float64 // scaled transactions/s (all types)
	Commits      [tpcc.NumTxnTypes]uint64
	Rollbacks    uint64
	Retries      uint64
	Failures     uint64

	CtlMsgsPerTxn  float64
	DataMsgsPerTxn float64
	IPCDataBytes   uint64

	LockWaitsPerTxn float64
	LockWaitMs      float64 // mean wait duration (scaled ms)
	LockFailsPerTxn float64

	ActiveThreads  float64 // mean runnable threads per node
	CtxSwitchK     float64 // mean context-switch cost, K cycles
	CPI            float64
	CPUUtil        float64
	BufferHitRatio float64

	DiskReadsPerTxn float64
	RespTimeMs      float64 // client-observed mean, scaled ms
	RespTimeP50Ms   float64 // client-observed percentiles, scaled ms
	RespTimeP95Ms   float64
	RespTimeP99Ms   float64
	MsgDelayMs      float64 // mean best-effort packet delay, scaled ms

	InterLataUtil float64
	NetDrops      uint64
	NetMarks      uint64
	Retransmits   uint64
	ConnResets    uint64

	FTPDeliveredMbps float64 // scaled

	// Fault-injection observability (all zero on a healthy run).
	FaultDrops    uint64 // packets lost on down/lossy links
	CorruptDrops  uint64 // packets discarded by receiver checksum
	FetchTimeouts uint64 // GCS protocol waits that expired
	FetchFails    uint64 // block fetches abandoned after retries
	LogFallbacks  uint64 // central-log writes that fell back to local
	IscsiTimeouts uint64 // iSCSI commands that timed out (then retried)
	IscsiFailed   uint64 // iSCSI commands abandoned after retries
	DiskErrors    uint64 // injected drive-level I/O errors
	DiskRetries   uint64 // pager retries after drive errors
	DiskFailures  uint64 // pager reads abandoned after retries

	// Recovery observability (all zero unless the fault schedule contains
	// crash/restart events). Durations are cumulative means in scaled ms;
	// counters are cumulative from t=0, not reset at the warmup boundary —
	// a recovery straddling the boundary is reported whole.
	Crashes          uint64
	Restarts         uint64
	NodesRecovered   uint64  // fence-to-reopen sequences completed
	NodesReadmitted  uint64  // rejoins completed
	DetectMs         float64 // mean crash -> coordinator suspicion
	RecoveryTimeMs   float64 // mean suspicion -> partition reopened
	UnavailabilityMs float64 // mean crash -> partition reopened
	ReadmitMs        float64 // mean restart -> re-admission complete
	FailoverRejects  uint64  // requests failed fast by recovery gates
	ClientRetries    uint64  // terminal dials redirected off a dead node
	RemasterHoldings uint64  // directory entries rebuilt from survivors
	ReplayBytes      int64   // redo log scanned during replay
	ReplayBlocks     uint64  // dirty blocks re-applied during replay
	WarmupFetches    uint64  // blocks refetched by a rejoined node's warmup

	// Timeline is the committed-transaction rate per TimelineBucket from
	// t=0 (warmup included; empty unless Params.TimelineBucket > 0).
	Timeline []TimelinePoint

	// Breakdown is the span-derived latency decomposition (zero value unless
	// Params.Trace was set). With UtilDecomp it is the only
	// observability-dependent part of Metrics; FingerprintSansObs hashes
	// everything but the two.
	Breakdown LatencyBreakdown

	// UtilDecomp is the telemetry-derived utilization decomposition (zero
	// value unless Params.Telemetry was set).
	UtilDecomp UtilDecomp
}

// ClassUtil is busy-seconds attributed to each traffic class over a group
// of links.
type ClassUtil struct {
	IPC       float64
	ISCSI     float64
	Client    float64
	FTP       float64
	Heartbeat float64
	Other     float64
}

// Sum returns the total attributed busy-seconds.
func (u ClassUtil) Sum() float64 {
	return u.IPC + u.ISCSI + u.Client + u.FTP + u.Heartbeat + u.Other
}

// add accumulates another group of links into this one.
func (u ClassUtil) add(v ClassUtil) ClassUtil {
	u.IPC += v.IPC
	u.ISCSI += v.ISCSI
	u.Client += v.Client
	u.FTP += v.FTP
	u.Heartbeat += v.Heartbeat
	u.Other += v.Other
	return u
}

// UtilDecomp decomposes the fabric's busy time by traffic class and reports
// the component utilization scalars of a telemetered run. Busy-seconds are
// cumulative from t=0 (telemetry, like recovery, is not reset at the warmup
// boundary: utilization timelines must show the whole run).
type UtilDecomp struct {
	Enabled    bool
	ElapsedSec float64 // simulated seconds covered (warmup + measure)

	// Per-class attributed busy-seconds by link group, and each group's
	// total busy time from the links' own counters. By construction each
	// group's ClassUtil.Sum() equals its *BusySec exactly; AttribMismatch
	// counts links where the integer identity failed (always 0).
	InterLata        ClassUtil
	NodeLinks        ClassUtil
	ClientLink       ClassUtil
	InterLataBusySec float64
	NodeLinksBusySec float64
	ClientBusySec    float64
	AttribMismatch   int

	// Component utilization scalars, summed over nodes/spindles.
	CPUThreadSec   float64
	CPUIrqSec      float64
	DiskBusySec    float64
	LogDiskBusySec float64
	GCSCtlMsgs     uint64
	GCSDataMsgs    uint64
	LockWaitSec    float64
}

// LatencyBreakdown decomposes the sampled transactions' client-observed
// response time into per-phase mean self times (scaled ms). By construction
// CPUMs+LockMs+GCSMs+DiskMs+OtherMs is mean server residency and FabricMs is
// the client-observed remainder (wire, queueing, protocol processing outside
// the worker), so the six phases sum to TotalMs exactly.
type LatencyBreakdown struct {
	Sampled uint64 // spans finished inside the measurement window

	TotalMs  float64
	CPUMs    float64
	LockMs   float64
	GCSMs    float64
	DiskMs   float64
	FabricMs float64
	OtherMs  float64

	TotalP95Ms float64
	TotalP99Ms float64
}

// Sum returns the six phase means added up (equals TotalMs up to float
// rounding; the lat-decomp experiment asserts this).
func (b LatencyBreakdown) Sum() float64 {
	return b.CPUMs + b.LockMs + b.GCSMs + b.DiskMs + b.FabricMs + b.OtherMs
}

// TimelinePoint is one bucket of the throughput timeline.
type TimelinePoint struct {
	T       sim.Time // bucket end
	TxnRate float64  // commits/s (all types) during the bucket
}

// Fingerprint hashes every reported number (timeline included) into one
// value: two runs with the same seed and schedule must produce the same
// fingerprint — the determinism regression the fault subsystem is held to.
func (m Metrics) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", m)
	return h.Sum64()
}

// FingerprintSansObs hashes the metrics with the trace-derived breakdown
// and the telemetry-derived decomposition zeroed out. The invariant every
// traced or telemetered run is held to is
//
//	observed.FingerprintSansObs() == plain.Fingerprint()
//
// — observation never perturbs the trajectory. The response-time
// percentiles stay in the hash: they are always-on and must match too.
func (m Metrics) FingerprintSansObs() uint64 {
	m.Breakdown = LatencyBreakdown{}
	m.UtilDecomp = UtilDecomp{}
	return m.Fingerprint()
}

// collect gathers metrics at the end of the measurement window.
func (c *Cluster) collect() Metrics {
	p := c.P
	m := Metrics{Nodes: p.Nodes, Affinity: p.Affinity}
	meas := p.Measure.Seconds()

	var totalCommits uint64
	for ty, n := range c.commits {
		m.Commits[ty] = n
		totalCommits += n
	}
	m.TpmC = float64(c.commits[tpcc.TxnNewOrder]) / meas * 60
	m.TotalTxnRate = float64(totalCommits) / meas
	m.Rollbacks, m.Retries, m.Failures = c.rollbacks, c.retries, c.failures

	if totalCommits == 0 {
		totalCommits = 1 // avoid dividing by zero in a dead run
	}
	var ctl, data, waits, fails, diskReads uint64
	var dataBytes uint64
	var waitSum float64
	var waitN uint64
	var threads, ctx, cpi, util, hits float64
	now := c.Sim.Now()
	for _, n := range c.nodes {
		st := n.dbn.GCS.Stats
		ctl += st.CtlMsgsSent
		data += st.DataMsgsSent
		dataBytes += st.DataBytes
		waits += st.LockWaits
		fails += st.LockFails
		waitSum += st.LockWaitTime.Sum()
		waitN += st.LockWaitTime.N()
		diskReads += st.BlockDiskReads
		threads += n.cpu.ActiveThreads(now)
		ctx += n.cpu.MeanCtxSwitchCycles()
		cpi += n.cpu.CPI()
		util += n.cpu.Utilization()
		hits += n.dbn.Cache.HitRatio()
	}
	nn := float64(len(c.nodes))
	m.CtlMsgsPerTxn = float64(ctl) / float64(totalCommits)
	m.DataMsgsPerTxn = float64(data) / float64(totalCommits)
	m.IPCDataBytes = dataBytes
	m.LockWaitsPerTxn = float64(waits) / float64(totalCommits)
	m.LockFailsPerTxn = float64(fails) / float64(totalCommits)
	if waitN > 0 {
		m.LockWaitMs = waitSum / float64(waitN) * 1000
	}
	m.DiskReadsPerTxn = float64(diskReads) / float64(totalCommits)
	m.ActiveThreads = threads / nn
	m.CtxSwitchK = ctx / nn / 1000
	m.CPI = cpi / nn
	m.CPUUtil = util / nn
	m.BufferHitRatio = hits / nn

	if c.respTally.n > 0 {
		mean := c.respTally.sum / sim.Time(c.respTally.n)
		m.RespTimeMs = mean.Millis()
		m.RespTimeP50Ms = c.respHist.Quantile(0.50)
		m.RespTimeP95Ms = c.respHist.Quantile(0.95)
		m.RespTimeP99Ms = c.respHist.Quantile(0.99)
	}
	be := c.Topo.Net.DelayByClass[netsim.ClassBestEffort]
	m.MsgDelayMs = be.Mean().Millis()
	m.InterLataUtil = c.Topo.InterLataUtilization()
	m.NetDrops = c.Topo.Net.Drops
	m.NetMarks = c.Topo.Net.Marks
	m.Retransmits = c.Dom.Retransmits
	m.ConnResets = c.Dom.Resets

	if c.ftp != nil {
		m.FTPDeliveredMbps = float64(c.ftp.gen.BytesDelivered) * 8 / meas / 1e6
	}

	m.FaultDrops = c.Topo.Net.FaultDrops
	m.CorruptDrops = c.Topo.Net.CorruptDrops
	for _, n := range c.nodes {
		st := n.dbn.GCS.Stats
		m.FetchTimeouts += st.FetchTimeouts
		m.FetchFails += st.FetchFails
		m.LogFallbacks += st.LogFallbacks
		m.IscsiTimeouts += n.initiator.Timeouts
		m.IscsiFailed += n.initiator.Failed
		m.DiskRetries += n.dbn.Pager.DiskRetries
		m.DiskFailures += n.dbn.Pager.DiskFailures
		for _, d := range n.drives {
			m.DiskErrors += d.FaultErrors
		}
	}
	if c.san != nil {
		for _, d := range c.san.Drives {
			m.DiskErrors += d.FaultErrors
		}
	}
	if r := c.rec; r != nil {
		m.Crashes = r.crashes
		m.Restarts = r.restarts
		m.NodesRecovered = r.recovered
		m.NodesReadmitted = r.readmitted
		if r.crashes > 0 {
			m.DetectMs = (r.detectSum / sim.Time(r.crashes)).Millis()
		}
		if r.recovered > 0 {
			m.RecoveryTimeMs = (r.recTimeSum / sim.Time(r.recovered)).Millis()
			m.UnavailabilityMs = (r.unavailSum / sim.Time(r.recovered)).Millis()
		}
		if r.readmitted > 0 {
			m.ReadmitMs = (r.readmitSum / sim.Time(r.readmitted)).Millis()
		}
		for _, n := range c.nodes {
			m.FailoverRejects += n.dbn.GCS.Stats.GateRejects
		}
		m.ClientRetries = r.clientRetries
		m.RemasterHoldings = r.remasterHoldings
		m.ReplayBytes = r.replayBytes
		m.ReplayBlocks = r.replayBlocks
		m.WarmupFetches = r.warmupFetches
	}
	m.Timeline = c.timeline

	if c.tr != nil {
		b := &m.Breakdown
		b.Sampled = c.tr.Sampled()
		b.TotalMs = c.tr.TotalMeanMs()
		b.CPUMs = c.tr.PhaseMeanMs(trace.PhaseCPU)
		b.LockMs = c.tr.PhaseMeanMs(trace.PhaseLock)
		b.GCSMs = c.tr.PhaseMeanMs(trace.PhaseGCS)
		b.DiskMs = c.tr.PhaseMeanMs(trace.PhaseDisk)
		b.FabricMs = c.tr.PhaseMeanMs(trace.PhaseFabric)
		b.OtherMs = c.tr.PhaseMeanMs(trace.PhaseOther)
		b.TotalP95Ms = c.tr.TotalQuantileMs(0.95)
		b.TotalP99Ms = c.tr.TotalQuantileMs(0.99)
	}
	if c.telReg != nil {
		c.collectTelemetry(&m)
	}
	return m
}

// String renders the headline numbers for humans.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d affinity=%.2f tpmC(scaled)=%.1f txn/s=%.2f\n",
		m.Nodes, m.Affinity, m.TpmC, m.TotalTxnRate)
	fmt.Fprintf(&b, "  IPC ctl/txn=%.1f data/txn=%.2f lockWaits/txn=%.3f lockWait=%.2fms lockFails/txn=%.4f\n",
		m.CtlMsgsPerTxn, m.DataMsgsPerTxn, m.LockWaitsPerTxn, m.LockWaitMs, m.LockFailsPerTxn)
	fmt.Fprintf(&b, "  threads=%.1f ctx=%.1fK CPI=%.2f cpu=%.2f bufHit=%.3f disk/txn=%.2f resp=%.1fms\n",
		m.ActiveThreads, m.CtxSwitchK, m.CPI, m.CPUUtil, m.BufferHitRatio, m.DiskReadsPerTxn, m.RespTimeMs)
	fmt.Fprintf(&b, "  resp: p50=%.1fms p95=%.1fms p99=%.1fms\n",
		m.RespTimeP50Ms, m.RespTimeP95Ms, m.RespTimeP99Ms)
	if bd := m.Breakdown; bd.Sampled > 0 {
		fmt.Fprintf(&b, "  span(n=%d): total=%.1fms cpu=%.1f lock=%.1f gcs=%.1f disk=%.1f fabric=%.1f other=%.1f p95=%.1f p99=%.1f\n",
			bd.Sampled, bd.TotalMs, bd.CPUMs, bd.LockMs, bd.GCSMs, bd.DiskMs, bd.FabricMs, bd.OtherMs,
			bd.TotalP95Ms, bd.TotalP99Ms)
	}
	fmt.Fprintf(&b, "  net: delay=%.3fms interLataUtil=%.2f drops=%d marks=%d retx=%d resets=%d ftp=%.1fMbps\n",
		m.MsgDelayMs, m.InterLataUtil, m.NetDrops, m.NetMarks, m.Retransmits, m.ConnResets, m.FTPDeliveredMbps)
	if m.FaultDrops+m.CorruptDrops+m.FetchTimeouts+m.FetchFails+m.IscsiTimeouts+m.DiskErrors > 0 {
		fmt.Fprintf(&b, "  faults: drops=%d corrupt=%d fetchTO=%d fetchFail=%d logFB=%d iscsiTO=%d iscsiFail=%d diskErr=%d diskRetry=%d diskFail=%d\n",
			m.FaultDrops, m.CorruptDrops, m.FetchTimeouts, m.FetchFails, m.LogFallbacks,
			m.IscsiTimeouts, m.IscsiFailed, m.DiskErrors, m.DiskRetries, m.DiskFailures)
	}
	if u := m.UtilDecomp; u.Enabled {
		fmt.Fprintf(&b, "  util: interlata[ipc=%.1fs iscsi=%.1fs client=%.1fs ftp=%.1fs hb=%.1fs other=%.1fs] cpu=%.1fs irq=%.1fs disk=%.1fs log=%.1fs mismatch=%d\n",
			u.InterLata.IPC, u.InterLata.ISCSI, u.InterLata.Client, u.InterLata.FTP,
			u.InterLata.Heartbeat, u.InterLata.Other,
			u.CPUThreadSec, u.CPUIrqSec, u.DiskBusySec, u.LogDiskBusySec, u.AttribMismatch)
	}
	if m.Crashes > 0 {
		fmt.Fprintf(&b, "  recovery: crashes=%d restarts=%d recovered=%d readmitted=%d detect=%.1fms recovery=%.1fms unavail=%.1fms readmit=%.1fms\n",
			m.Crashes, m.Restarts, m.NodesRecovered, m.NodesReadmitted,
			m.DetectMs, m.RecoveryTimeMs, m.UnavailabilityMs, m.ReadmitMs)
		fmt.Fprintf(&b, "  recovery: gateRejects=%d clientRetries=%d remaster=%d replay=%dB/%dblk warmup=%d\n",
			m.FailoverRejects, m.ClientRetries, m.RemasterHoldings,
			m.ReplayBytes, m.ReplayBlocks, m.WarmupFetches)
	}
	return b.String()
}
