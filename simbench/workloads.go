package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dclue/internal/core"
	"dclue/internal/rng"
	"dclue/internal/runner"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// workload names, in the order the docs and BENCHMARK.json list them.
const (
	wTpccScale      = "tpcc-scale"
	wXtrafficObs    = "xtraffic-obs"
	wCapacityRouter = "capacity-router"
)

var workloadNames = []string{wTpccScale, wXtrafficObs, wCapacityRouter}

// capacityLabel names the capacity search's own outcome among the probe
// points of capacity-router.
const capacityLabel = "capacity"

// sizing holds the run lengths. benchSizing is what the benchmark measures:
// half the experiment harness's -quick windows, so that a run's median
// covers ten or more repetitions on a noisy host. tinySizing is for the
// self-test only.
type sizing struct {
	warmup, measure sim.Time
	tiny            bool // shrunken TPC-C population and capacity range
}

var (
	benchSizing = sizing{warmup: 25 * sim.Second, measure: 50 * sim.Second}
	tinySizing  = sizing{warmup: 5 * sim.Second, measure: 10 * sim.Second, tiny: true}
)

// simSeed generates the simulator's seed from the workload seed: the
// simulator only ever sees the generated Params.
func simSeed(seed uint64) uint64 { return rng.Derive(seed, "simbench/params").Uint64() }

// baseParams is DefaultParams with the workload seed and run lengths applied.
func baseParams(nodes int, seed uint64, sz sizing) core.Params {
	p := core.DefaultParams(nodes)
	p.Seed = simSeed(seed)
	p.Warmup, p.Measure = sz.warmup, sz.measure
	if sz.tiny {
		p.CustomersPerDist = 20
		p.Items = 100
	}
	return p
}

// pointParams returns the fixed-load points of tpcc-scale and xtraffic-obs.
// Observability collectors are attached per run by runPoint.
func pointParams(workload string, seed uint64, sz sizing) []core.Params {
	switch workload {
	case wTpccScale:
		var ps []core.Params
		for _, n := range []int{2, 4, 8} {
			p := baseParams(n, seed, sz)
			p.NodesPerLata = 12 // one LATA, one router domain
			p.Affinity = 0.8
			p.Warehouses = 8 * n
			ps = append(ps, p)
		}
		return ps
	case wXtrafficObs:
		p := baseParams(8, seed, sz)
		p.NodesPerLata = 4 // two LATAs of four nodes
		p.Affinity = 0.8
		p.Warehouses = 8 * 8
		p.CrossTrafficBps = 400e6 // unscaled, as Figs 14-15 offer it
		p.CrossTrafficPriority = true
		return []core.Params{p}
	}
	return nil
}

// capacityParams returns the base configuration and warehouse-per-node cap
// of capacity-router: Fig 8's throttled single-LATA router at 8 nodes. A
// cap of 2^k-1 makes every bisection path exactly k probes long wherever a
// seed puts the knee, so the work the answer needs does not depend on the
// seed. A cap of 7 puts the deepest probe (56 warehouses) past the knee
// without the transaction failures a 96-warehouse probe shows.
func capacityParams(seed uint64, sz sizing) (core.Params, int) {
	p := baseParams(8, seed, sz)
	p.NodesPerLata = 12
	p.RouterFwdRate = 1600 * 100 / p.Scale
	if sz.tiny {
		return p, 3
	}
	return p, 7
}

// observed reports whether the workload attaches the trace and telemetry
// collectors the way dclueexp -trace/-telemetry does.
func observed(workload string) bool { return workload == wXtrafficObs }

// pointResult is one simulated point (a fixed-load run or a capacity probe).
type pointResult struct {
	Label       string
	Fingerprint string
	Err         string `json:",omitempty"`
	Commits     uint64
	Failures    uint64
	SetupS      float64 // host seconds in core.New
	RunS        float64 // host seconds in Cluster.Run
	SimS        float64 // simulated seconds (warmup + measure)
	Events      uint64
	StockRows   int

	// Model counts, identical across repetitions of a seed.
	CtlMsgsPerTxn   float64
	DataMsgsPerTxn  float64
	LockWaitsPerTxn float64
	BufferHitRatio  float64
	DiskReadsPerTxn float64
	NetDrops        uint64
	Retransmits     uint64

	// Observability work, non-zero only with collectors attached.
	TraceSpans       uint64 // transactions the trace collector sampled
	TelemetryGCSMsgs uint64 // GCS messages the telemetry registry counted

	// Kernel observations, traced runs only.
	ProcStarts  uint64
	PendingSum  float64
	PendingPeak int
}

// kernelTracer is the benchmark's sim.Tracer: it counts events and process
// starts and samples the calendar depth at every event.
type kernelTracer struct {
	s          *sim.Sim
	events     uint64
	procStarts uint64
	pendingSum float64
	peak       int
}

func (k *kernelTracer) Event(sim.Time, uint64) {
	k.events++
	n := k.s.Pending()
	k.pendingSum += float64(n)
	if n > k.peak {
		k.peak = n
	}
}

func (k *kernelTracer) ProcStart(sim.Time, string) { k.procStarts++ }

func (k *kernelTracer) ProcEnd(sim.Time, string, bool) {}

// workloadRun executes one workload repetition and records its points. A nil
// span recorder and traced=false give the untraced run.
type workloadRun struct {
	workload string
	seed     uint64
	sz       sizing
	traced   bool
	spans    *recorder

	mu     sync.Mutex
	points []pointResult
}

// runPoint builds and runs one cluster, timing core.New and Cluster.Run.
func (wr *workloadRun) runPoint(p core.Params, label string, parent int) (core.Metrics, error) {
	if observed(wr.workload) {
		col := trace.NewCollector(1) // every transaction sampled
		col.KeepEvents(0)
		p.Trace = col
		p.Telemetry = telemetry.NewCollector(sim.Second)
	}
	pr := pointResult{Label: label, SimS: (p.Warmup + p.Measure).Seconds(), StockRows: p.Warehouses * p.Items}
	span := wr.spans.begin("point "+label, parent)
	defer wr.spans.end(span)

	sp := wr.spans.begin("core.New", span)
	t0 := time.Now()
	c, err := core.New(p)
	pr.SetupS = time.Since(t0).Seconds()
	wr.spans.end(sp)
	if err != nil {
		pr.Err = err.Error()
		wr.add(pr)
		return core.Metrics{}, err
	}
	var kt *kernelTracer
	if wr.traced {
		kt = &kernelTracer{s: c.Sim}
		c.Sim.SetTracer(kt)
	}
	sp = wr.spans.begin("Cluster.Run", span)
	t0 = time.Now()
	m, err := c.Run()
	pr.RunS = time.Since(t0).Seconds()
	wr.spans.end(sp)

	pr.Events = c.Sim.EventCount()
	if kt != nil {
		pr.ProcStarts, pr.PendingSum, pr.PendingPeak = kt.procStarts, kt.pendingSum, kt.peak
		if kt.events != pr.Events {
			err = fmt.Errorf("tracer saw %d events, kernel counted %d", kt.events, pr.Events)
		}
	}
	if err != nil {
		pr.Err = err.Error()
	}
	fillModel(&pr, m)
	wr.add(pr)
	return m, err
}

func fillModel(pr *pointResult, m core.Metrics) {
	pr.Fingerprint = fmt.Sprintf("%016x", m.Fingerprint())
	for _, n := range m.Commits {
		pr.Commits += n
	}
	pr.Failures = m.Failures
	pr.CtlMsgsPerTxn, pr.DataMsgsPerTxn = m.CtlMsgsPerTxn, m.DataMsgsPerTxn
	pr.LockWaitsPerTxn, pr.BufferHitRatio = m.LockWaitsPerTxn, m.BufferHitRatio
	pr.DiskReadsPerTxn = m.DiskReadsPerTxn
	pr.NetDrops, pr.Retransmits = m.NetDrops, m.Retransmits
	pr.TraceSpans = m.Breakdown.Sampled
	pr.TelemetryGCSMsgs = m.UtilDecomp.GCSCtlMsgs + m.UtilDecomp.GCSDataMsgs
}

func (wr *workloadRun) add(pr pointResult) {
	wr.mu.Lock()
	wr.points = append(wr.points, pr)
	wr.mu.Unlock()
}

// capacityOutcome is what the traced run needs from the search to derive
// the runner metrics.
type capacityOutcome struct {
	Workers    int
	UsefulPath int     // probes the sequential bisection visits
	PathSimS   float64 // simulated seconds of those probes
	ProbeBusyS float64 // host seconds summed over probes
}

// run executes every point of the workload once. It returns the points in
// a stable order (probes sorted by warehouse count, the capacity outcome
// last) and the host seconds until the workload's answer was known.
func (wr *workloadRun) run() ([]pointResult, *capacityOutcome, float64) {
	t0 := time.Now()
	root := wr.spans.begin("workload "+wr.workload, -1)
	defer wr.spans.end(root)
	if wr.workload != wCapacityRouter {
		for _, p := range pointParams(wr.workload, wr.seed, wr.sz) {
			wr.runPoint(p, fmt.Sprintf("nodes=%d", p.Nodes), root)
		}
		return wr.points, nil, time.Since(t0).Seconds()
	}

	base, maxPerNode := capacityParams(wr.seed, wr.sz)
	pool := runner.New(runtime.NumCPU())
	type probe struct {
		m   core.Metrics
		err error
	}
	var memoMu sync.Mutex
	memo := map[int]probe{}
	search := wr.spans.begin("runner.CapacityExec", root)
	exec := func(q core.Params) (core.Metrics, error) {
		m, err := wr.runPoint(q, fmt.Sprintf("wh=%d", q.Warehouses), search)
		memoMu.Lock()
		memo[q.Warehouses] = probe{m, err}
		memoMu.Unlock()
		return m, err
	}
	res := runner.CapacityExec(pool, exec, base, maxPerNode)
	wall := time.Since(t0).Seconds()
	wr.spans.end(search)
	drain(pool)

	out := &capacityOutcome{Workers: pool.Workers()}
	for _, pr := range wr.points {
		out.ProbeBusyS += pr.SetupS + pr.RunS
	}
	// Replay the bisection over the memoised probe outcomes: the path the
	// sequential search needs, with no extra simulation.
	var replayErr error
	core.SearchCapacity(base, maxPerNode, func(q core.Params) (core.Metrics, error) {
		out.UsefulPath++
		out.PathSimS += (q.Warmup + q.Measure).Seconds()
		pr, ok := memo[q.Warehouses]
		if !ok {
			replayErr = fmt.Errorf("bisection visits %d warehouses, which no probe ran", q.Warehouses)
		}
		return pr.m, pr.err
	}, nil)

	probes := append([]pointResult(nil), wr.points...)
	sort.Slice(probes, func(i, j int) bool { return probes[i].StockRows < probes[j].StockRows })
	outcome := pointResult{Label: capacityLabel}
	fillModel(&outcome, res.Metrics)
	outcome.Fingerprint = fmt.Sprintf("wh=%d/feasible=%v/%s", res.Warehouses, res.Feasible, outcome.Fingerprint)
	if replayErr != nil {
		outcome.Err = replayErr.Error()
	}
	return append(probes, outcome), out, wall
}

// drain returns once no speculative probe is still running. The search can
// return while a probe it no longer needs runs on; each such probe holds a
// pool slot from launch to completion, so holding every slot at once proves
// that all of them have finished and recorded their points.
func drain(pool *runner.Pool) {
	release := make(chan struct{})
	for held := 1; held < pool.Workers(); {
		if pool.TryGo(func() { <-release }) {
			held++
			continue
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
}
