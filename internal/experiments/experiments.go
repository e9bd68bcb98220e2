// Package experiments regenerates every table and figure of the paper's
// evaluation (§3): IPC message growth, lock behaviour, throughput scaling
// versus cluster size and affinity, router and logging bottlenecks,
// database-growth sensitivity, protocol offload, latency sensitivity, and
// QoS/cross-traffic interference. Each Fig* function runs the relevant
// parameter sweep on the core cluster model and returns named series plus a
// printable table, exactly one function per paper figure.
package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"

	"dclue/internal/core"
	"dclue/internal/runner"
	"dclue/internal/sim"
	"dclue/internal/stats"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// Options control sweep sizes, run lengths and parallelism.
type Options struct {
	Seed uint64
	// Quick shrinks sweeps and run lengths so the full set finishes in
	// minutes (used by the benchmark harness); the default is the paper's
	// full sweep.
	Quick bool
	// Log, when non-nil, receives progress lines. Writes are whole lines
	// and serialized, so the sink stays readable under parallel sweeps;
	// line order follows completion order when a Pool is set.
	Log io.Writer
	// Pool, when non-nil, fans the independent simulation points of every
	// figure across its workers. Results are merged in point order, so the
	// rendered tables and fingerprints are identical to a sequential run;
	// nil (the default) runs fully sequentially.
	Pool *runner.Pool

	// Trace, when non-nil, is the span collector the trace-aware experiments
	// attach to their runs (the CLI passes one configured for export). When
	// nil, lat-decomp allocates a private histogram-only collector, so its
	// tables come out the same either way.
	Trace *trace.Collector

	// Telemetry, when non-nil, is the metrics registry collector every
	// figure's runs attach to (the CLI passes one configured for JSONL
	// export). When nil, util-decomp allocates a private collector, so its
	// tables come out the same either way. Telemetry never changes a table —
	// the non-perturbation guarantee the telemetry tests hold the layer to.
	Telemetry *telemetry.Collector

	// Exec, when non-nil, evaluates every simulation point of every figure
	// in place of in-process core.Run — the hook the experiment farm uses to
	// ship points to worker processes and serve repeats from its
	// content-addressed result cache. Exec is held to the runner.Exec
	// contract (a pure deterministic function of Params), so the rendered
	// tables are byte-identical whichever executor is installed; nil (the
	// default) runs every point in-process.
	Exec runner.Exec

	// tinyRuns (test hook) shrinks workload sizing and windows far below
	// Quick so unit tests can afford to sweep every registered figure.
	tinyRuns bool
}

// Result is one regenerated figure.
type Result struct {
	ID     string
	Title  string
	XLabel string
	Series []*stats.Series
	Notes  string
}

// Table renders the result as text.
func (r Result) Table() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	out += stats.Table(r.XLabel, r.Series...)
	if r.Notes != "" {
		out += r.Notes + "\n"
	}
	return out
}

// Chart renders the result as an ASCII chart plus the table.
func (r Result) Chart() string {
	out := stats.Chart(fmt.Sprintf("== %s: %s ==", r.ID, r.Title), r.XLabel, 56, 14, r.Series...)
	if r.Notes != "" {
		out += r.Notes + "\n"
	}
	return out
}

// Fingerprint hashes the rendered table (every series name and value) into
// one number. Parallel and sequential regenerations of the same figure must
// agree on it — the cross-check the sweep engine is held to.
func (r Result) Fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, r.Table())
	return h.Sum64()
}

// Kind tags an experiment with the family it belongs to.
type Kind string

// The experiment families, in registry order.
const (
	Paper     Kind = "paper"     // the paper's Figs 2-16
	Ablation  Kind = "ablation"  // design-choice ablations (abl-*)
	Fault     Kind = "fault"     // graceful degradation under faults (flt-*)
	Trace     Kind = "trace"     // span-tracing decomposition (lat-*)
	Telemetry Kind = "telemetry" // telemetry decomposition (util-*)
)

// Figure is a runnable experiment.
type Figure struct {
	ID    string
	Kind  Kind
	Title string
	Run   func(Options) Result
}

// Registry returns every experiment: the paper's figures in paper order,
// then the ablations, fault, trace and telemetry experiments. Each is one
// parameter set over the same cluster model; Kind says which family.
func Registry() []Figure {
	return []Figure{
		{"fig02", Paper, "IPC messages per transaction vs nodes (affinity 0.8)", Fig2},
		{"fig03", Paper, "IPC messages per transaction vs nodes (affinity 0)", Fig3},
		{"fig04", Paper, "Lock waits per transaction vs nodes and affinity", Fig4},
		{"fig05", Paper, "Lock wait time vs nodes and affinity", Fig5},
		{"fig06", Paper, "Throughput scaling vs nodes and affinity", Fig6},
		{"fig07", Paper, "Scaling vs affinity, nodes as parameter", Fig7},
		{"fig08", Paper, "Impact of router forwarding rate on scalability", Fig8},
		{"fig09", Paper, "Impact of single-node (centralized) logging", Fig9},
		{"fig10", Paper, "Impact of slower DB size growth", Fig10},
		{"fig11", Paper, "Impact of TCP and iSCSI offload", Fig11},
		{"fig12", Paper, "Latency impact, normal computation", Fig12},
		{"fig13", Paper, "Latency impact, low computation", Fig13},
		{"fig14", Paper, "Cross-traffic impact, normal computation", Fig14},
		{"fig15", Paper, "Cross-traffic impact, low computation", Fig15},
		{"fig16", Paper, "Cross-traffic impact vs affinity (low computation)", Fig16},

		{"abl-qos", Ablation, "QoS remedy: strict priority vs WFQ under cross traffic", AblationQoS},
		{"abl-san", Ablation, "Storage architecture: distributed iSCSI vs shared SAN", AblationSAN},
		{"abl-subpage", Ablation, "Lock granularity: tuned row-level vs coarse subpages", AblationSubpage},
		{"abl-groupcommit", Ablation, "Log device: group commit vs serial writes", AblationGroupCommit},
		{"abl-elevator", Ablation, "Disk scheduling: SCAN elevator vs FIFO", AblationElevator},
		{"abl-prewarm", Ablation, "Warm vs cold buffer caches at start", AblationPrewarm},

		{"flt-loss", Fault, "Degradation vs burst-loss intensity on the inter-LATA path", FaultLossSweep},
		{"flt-recovery", Fault, "Throughput timeline through a link-down + burst-loss fault", FaultRecovery},
		{"flt-layers", Fault, "Degradation by faulted layer: network vs node vs storage", FaultLayers},
		{"flt-failover", Fault, "Throughput through a node crash, recovery and re-admission", FaultFailover},
		{"flt-failover-size", Fault, "Recovery and unavailability window vs cluster size", FaultFailoverSize},
		{"flt-failover-ckpt", Fault, "Recovery window vs checkpoint interval", FaultFailoverCkpt},

		{"lat-decomp", Trace, "Transaction latency decomposition by phase (nodes x offload)", LatencyDecomposition},

		{"util-decomp", Telemetry, "Per-class server-link utilization decomposition vs nodes", UtilDecomposition},
	}
}

// Lookup finds an experiment by its id or a short form of it: the id
// without its family prefix ("loss" for flt-loss, "qos" for abl-qos), and
// for paper figures the bare number ("6" or "06" for fig06). A short form
// that names more than one experiment is an error listing every candidate.
func Lookup(id string) (Figure, error) {
	var hits []Figure
	for _, f := range Registry() {
		for _, prefix := range []string{"", "fig", "fig0", "abl-", "flt-", "lat-", "util-"} {
			if f.ID == prefix+id {
				hits = append(hits, f)
				break
			}
		}
	}
	switch len(hits) {
	case 0:
		return Figure{}, fmt.Errorf("unknown experiment %q", id)
	case 1:
		return hits[0], nil
	}
	ids := make([]string, len(hits))
	for i, f := range hits {
		ids[i] = f.ID
	}
	return Figure{}, fmt.Errorf("ambiguous experiment id %q: matches %s", id, strings.Join(ids, ", "))
}

// RunAll runs the given figures — fanning across figures and, within each,
// across sweep points on o.Pool — and returns results in input order.
func RunAll(figs []Figure, o Options) []Result {
	out := make([]Result, len(figs))
	o.Pool.Map(len(figs), func(i int) { out[i] = figs[i].Run(o) })
	return out
}

// ---- shared helpers ----

// logMu serializes progress lines from concurrent sweep workers: each line
// is formatted in full, then written with a single Write under the lock, so
// lines never interleave mid-line whatever the sink.
var logMu sync.Mutex

func (o Options) logf(format string, args ...any) {
	if o.Log == nil {
		return
	}
	line := fmt.Sprintf(format+"\n", args...)
	logMu.Lock()
	defer logMu.Unlock()
	io.WriteString(o.Log, line)
}

// forEach runs fn for every index in [0, n) on the option's pool (inline
// and in order when no pool is set). fn must confine its writes to
// index-owned slots; the caller merges after forEach returns.
func (o Options) forEach(n int, fn func(i int)) {
	o.Pool.Map(n, fn)
}

// grid runs fn for every (row, col) pair on the option's pool, flattening
// the pairs row-major so a two-level sweep parallelizes as one job set.
func (o Options) grid(rows, cols int, fn func(r, c int)) {
	o.forEach(rows*cols, func(i int) { fn(i/cols, i%cols) })
}

// baseParams returns the default cluster parameters adjusted for quick mode.
func (o Options) baseParams(nodes int) core.Params {
	p := core.DefaultParams(nodes)
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	if o.Quick {
		p.Warmup = 50 * sim.Second
		p.Measure = 100 * sim.Second
	}
	if o.tinyRuns {
		p.CustomersPerDist = 20
		p.Items = 100
		p.Warmup = 10 * sim.Second
		p.Measure = 20 * sim.Second
	}
	// Tracing and telemetry attach to every figure's runs (nil disables);
	// neither ever changes a table — the non-perturbation guarantee their
	// test suites hold both layers to.
	p.Trace = o.Trace
	p.Telemetry = o.Telemetry
	return p
}

// nodeSweep returns the cluster sizes for scaling figures. The paper goes
// to 24 nodes; the default sweep stops at 16 to keep the full single-core
// regeneration under an hour (the model is linear in nodes, and every
// trend is established well before 16).
func (o Options) nodeSweep() []int {
	if o.Quick {
		return []int{2, 4, 8}
	}
	return []int{2, 4, 8, 12, 16}
}

// quickAffs trims affinity sweeps in quick mode.
func (o Options) quickAffs(full []float64) []float64 {
	if !o.Quick {
		return full
	}
	if len(full) <= 2 {
		return full
	}
	return []float64{full[0], full[len(full)-2]}
}

// maxWhPerNode caps the capacity search.
func (o Options) maxWhPerNode() int {
	if o.tinyRuns {
		return 3
	}
	if o.Quick {
		return 12
	}
	return 48
}

// capacity runs the TPC-C self-sizing capacity search. The warehouse upper
// bound scales with affinity (low-affinity clusters cannot sustain large
// populations, and probing deep overload is the single most expensive thing
// a sweep can do), and larger clusters use a slightly shorter measurement
// window — they produce proportionally more transactions per simulated
// second, so the statistics stay sound. With a pool set, the bisection
// probes speculatively on free workers; the result is identical either way.
func (o Options) capacity(p core.Params) core.CapacityResult {
	max := o.maxWhPerNode()
	if !o.Quick && !o.tinyRuns {
		switch {
		case p.Affinity >= 0.95:
			max = 48
		case p.Affinity >= 0.7:
			max = 24
		case p.Affinity >= 0.4:
			max = 12
		default:
			max = 8
		}
	}
	if p.Nodes >= 12 {
		p.Warmup = 100 * sim.Second
		p.Measure = 150 * sim.Second
	}
	return runner.CapacityExec(o.Pool, o.Exec, p, max)
}

// run evaluates one simulation point through the installed executor
// (in-process core.Run by default). Every figure's points go through here or
// through o.capacity — the single-funnel property the farm relies on.
func (o Options) run(p core.Params) (core.Metrics, error) {
	if o.Exec != nil {
		return o.Exec(p)
	}
	return core.Run(p)
}

// mustRun is run for configurations the experiments know to be valid.
func (o Options) mustRun(p core.Params) core.Metrics {
	m, err := o.run(p)
	if err != nil {
		panic(err)
	}
	return m
}

// fixedLoad runs once at the given warehouse count.
func (o Options) fixedLoad(p core.Params, warehouses int) core.Metrics {
	p.Warehouses = warehouses
	return o.mustRun(p)
}

// sortedCopy returns xs ascending (defensive for table rendering).
func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}
