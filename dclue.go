// Package dclue is a from-scratch Go reproduction of DCLUE, the distributed
// cluster emulator behind K. Kant and A. Sahoo, "Clustered DBMS Scalability
// under Unified Ethernet Fabric" (ICPP 2005).
//
// It simulates a cache-fusion clustered OLTP DBMS whose inter-process
// communication, iSCSI storage traffic and client-server traffic all share
// one TCP/IP-over-Ethernet fabric: a discrete-event kernel, packet-level
// Ethernet/router/QoS models, TCP Reno with SACK-style recovery and ECN, a
// CPU/thread/memory platform model, per-node disks with iSCSI access, a
// functional mini-DBMS (B+-trees, buffer caches, MVCC, two-phase subpage
// locking, write-ahead logging, cache-fusion directory protocol), the full
// TPC-C workload with the paper's affinity parameter, and FTP cross
// traffic.
//
// The simplest entry point:
//
//	p := dclue.DefaultParams(4) // a 4-node cluster at the paper's defaults
//	p.Affinity = 0.8
//	m, err := dclue.Run(p)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(m)
//
// Experiments reproducing the paper's figures, plus the ablation, fault,
// trace and telemetry experiments, live behind Figures and LookupFigure;
// see EXPERIMENTS.md for the measured results.
package dclue

import (
	"dclue/internal/core"
	"dclue/internal/experiments"
	"dclue/internal/faults"
	"dclue/internal/runner"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// Params configures a cluster simulation; see core.Params for every knob.
type Params = core.Params

// Metrics is the measurement set one run produces.
type Metrics = core.Metrics

// CapacityResult reports a capacity search outcome.
type CapacityResult = core.CapacityResult

// Time is simulated time in nanoseconds.
type Time = sim.Time

// Convenient duration units of simulated time.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultParams returns the paper's baseline configuration (scale factor
// 100, P4 DP nodes, 1 Gb/s Ethernet, HW TCP/iSCSI, affinity 0.8) for the
// given cluster size.
func DefaultParams(nodes int) Params { return core.DefaultParams(nodes) }

// Run builds the cluster, simulates warmup plus the measurement window, and
// returns the metrics. It returns an error for an invalid fault schedule,
// a setup failure, or a wedged simulation (kernel deadlock watchdog).
func Run(p Params) (Metrics, error) { return core.Run(p) }

// FaultSchedule validates a fault-injection schedule in the compact syntax
// accepted by Params.FaultSpec, returning its normalized form.
func FaultSchedule(spec string) (string, error) {
	sch, err := faults.ParseSchedule(spec)
	if err != nil {
		return "", err
	}
	return sch.String(), nil
}

// MeasureCapacity finds the largest TPC-C configuration (warehouses, at
// 12.5 tpm-C offered per warehouse) the cluster sustains with healthy
// response times, following the benchmark's size-to-throughput rule the
// paper's scaling studies rely on.
func MeasureCapacity(p Params, maxWarehousesPerNode int) CapacityResult {
	return core.MeasureCapacity(p, maxWarehousesPerNode)
}

// SweepPool is the bounded work-stealing worker pool the parallel sweep
// engine fans independent simulation points across. A nil pool is valid
// and means fully sequential execution.
type SweepPool = runner.Pool

// NewSweepPool returns a pool of the given width; workers <= 0 picks
// GOMAXPROCS, workers == 1 forces sequential execution.
func NewSweepPool(workers int) *SweepPool { return runner.New(workers) }

// SweepPoint is one independent simulation job in a sweep.
type SweepPoint = runner.Point

// SweepResult pairs a SweepPoint with its run outcome.
type SweepResult = runner.PointResult

// RunSweep evaluates every point on the pool and returns results in point
// order: a parallel sweep merges identically to a sequential one.
func RunSweep(pool *SweepPool, pts []SweepPoint) []SweepResult {
	return pool.RunPoints(pts)
}

// MeasureCapacityWith is MeasureCapacity with speculative parallel probing
// on the pool's free workers; the result is byte-identical to the
// sequential search.
func MeasureCapacityWith(pool *SweepPool, p Params, maxWarehousesPerNode int) CapacityResult {
	return runner.Capacity(pool, p, maxWarehousesPerNode)
}

// ExperimentOptions control the figure-reproduction sweeps.
type ExperimentOptions = experiments.Options

// ExperimentResult is one regenerated figure.
type ExperimentResult = experiments.Result

// Figure is one runnable experiment; its Kind names the family.
type Figure = experiments.Figure

// ExperimentKind tags a Figure with its family.
type ExperimentKind = experiments.Kind

// The experiment families.
const (
	PaperFigure         = experiments.Paper     // Figs 2-16 (fig02 .. fig16)
	AblationExperiment  = experiments.Ablation  // design-choice ablations (abl-*)
	FaultExperiment     = experiments.Fault     // graceful degradation under faults (flt-*)
	TraceExperiment     = experiments.Trace     // span-traced latency decomposition (lat-*)
	TelemetryExperiment = experiments.Telemetry // telemetry utilization decomposition (util-*)
)

// Figures lists every experiment: the paper's figures in order (Fig 2 ..
// Fig 16), then the ablations, fault, trace and telemetry experiments.
func Figures() []Figure { return experiments.Registry() }

// LookupFigure finds an experiment by id or short form ("fig06", "6",
// "qos", "loss"). It is an error for an unknown id, or for a short form
// that names more than one experiment; the error lists the candidates.
func LookupFigure(id string) (Figure, error) { return experiments.Lookup(id) }

// RunFigures runs the given figures — fanning across figures and sweep
// points on o.Pool when set — and returns results in input order.
func RunFigures(figs []Figure, o ExperimentOptions) []ExperimentResult {
	return experiments.RunAll(figs, o)
}

// TraceCollector gathers transaction spans across runs: set one on
// Params.Trace (or ExperimentOptions.Trace) and every run records a
// per-phase latency breakdown into its Metrics; with KeepEvents enabled the
// collector additionally retains span segments exportable as JSONL or a
// Chrome trace_event file (WriteFile). Tracing never perturbs a run:
// metrics outside the breakdown are bit-identical with tracing on or off
// (Metrics.FingerprintSansObs is the regression hook).
type TraceCollector = trace.Collector

// LatencyBreakdown is the span-derived per-phase decomposition inside
// Metrics.
type LatencyBreakdown = core.LatencyBreakdown

// NewTraceCollector returns a collector sampling every n-th transaction per
// run (n <= 1 traces every transaction).
func NewTraceCollector(n int) *TraceCollector { return trace.NewCollector(n) }

// TelemetryCollector is the unified metrics registry: set one on
// Params.Telemetry (or ExperimentOptions.Telemetry) and every run registers
// per-component utilization instruments — link busy time and bytes attributed
// to traffic class (IPC, iSCSI, client, FTP, heartbeat), NIC and router-port
// queue occupancy, per-node CPU busy split, per-spindle disk utilization,
// GCS message rates and lock waits, and recovery phase timelines — plus the
// Metrics.UtilDecomp summary. Registries are exportable as a JSONL
// timeseries or a Prometheus text snapshot (WriteFile, WriteJSONL,
// WritePrometheus). Telemetry never perturbs a run: metrics outside the
// decomposition are bit-identical with telemetry on or off
// (Metrics.FingerprintSansObs is the regression hook).
type TelemetryCollector = telemetry.Collector

// NewTelemetryCollector returns a collector whose instrument timelines use
// the given bucket width; bucket 0 records end-of-run scalars only.
func NewTelemetryCollector(bucket Time) *TelemetryCollector {
	return telemetry.NewCollector(bucket)
}

// UtilDecomp is the telemetry-derived utilization decomposition inside
// Metrics.
type UtilDecomp = core.UtilDecomp

// ClassUtil splits link busy seconds by traffic class.
type ClassUtil = core.ClassUtil
