package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

type metric struct {
	name  string
	value float64
	unit  string
}

// endToEndNames are the metrics of an untraced run's JSON line. fail_ratio
// is printed beside them but is carried in the JSON by attempted/failed.
var endToEndNames = []string{"wall_s", "setup_s", "sim_s_per_host_s", "peak_rss_mb"}

// perLayerNames are the metrics of a traced run's JSON line.
var perLayerNames = []string{
	"sim.events", "sim.proc_starts", "sim.ns_per_event", "sim.events_per_s",
	"sim.self_s", "rt.sched_s", "sim.proc_switch_ns", "sim.proc_switch_allocs",
	"sim.pending_mean", "sim.pending_peak", "sim.schedule_ns", "sim.schedule_allocs",
	"netsim.self_s", "netsim.packet_ns", "netsim.packet_allocs", "netsim.drops",
	"tcp.self_s", "tcp.msg_ns", "tcp.msg_allocs", "tcp.retransmits",
	"trace.self_s", "trace.spans", "telemetry.self_s", "telemetry.gcs_msgs",
	"db.self_s", "db.btree_get_ns", "db.btree_get_allocs", "db.btree_put_ns", "db.btree_put_allocs",
	"db.bufcache_lookup_ns", "db.bufcache_lookup_allocs",
	"db.ctl_msgs_per_txn", "db.data_msgs_per_txn", "db.lock_waits_per_txn",
	"db.buffer_hit_ratio", "db.disk_reads_per_txn",
	"platform.self_s", "platform.process_ns", "platform.process_allocs",
	"storage.self_s", "tpcc.self_s", "tpcc.commits",
	"core.new_s", "core.points",
	"runner.probes", "runner.probe_useful_ratio", "runner.worker_busy_ratio",
	"rt.gc_s", "gc.alloc_bytes_per_event", "gc.cycles",
	"other.self_s", "profile.total_s", "trace_overhead_ratio",
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOver returns the median of f over the repetitions.
func medianOver(reps []repResult, f func(repResult) float64) float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// simPoints returns the simulated points of a repetition, without the
// capacity search's outcome entry.
func simPoints(r repResult) []pointResult {
	var out []pointResult
	for _, p := range r.Points {
		if p.Label != capacityLabel {
			out = append(out, p)
		}
	}
	return out
}

func sumPoints(r repResult, f func(pointResult) float64) float64 {
	t := 0.0
	for _, p := range simPoints(r) {
		t += f(p)
	}
	return t
}

// usefulSimS is the simulated time the workload's answer needs: every
// fixed-load point, or the capacity search's sequential bisection path.
// Speculative probes the search wasted do not count.
func usefulSimS(r repResult) float64 {
	if r.Capacity != nil {
		return r.Capacity.PathSimS
	}
	return sumPoints(r, func(p pointResult) float64 { return p.SimS })
}

// endToEnd computes the end-to-end metrics as medians over the untraced
// repetitions.
func endToEnd(reps []repResult) []metric {
	if len(reps) == 0 {
		return nil
	}
	return []metric{
		{"wall_s", medianOver(reps, func(r repResult) float64 { return r.WallS }), "s"},
		{"setup_s", medianOver(reps, func(r repResult) float64 {
			return sumPoints(r, func(p pointResult) float64 { return p.SetupS })
		}), "s"},
		{"sim_s_per_host_s", medianOver(reps, func(r repResult) float64 { return usefulSimS(r) / r.WallS }), "sim-s/s"},
		{"peak_rss_mb", medianOver(reps, func(r repResult) float64 { return r.PeakRSSMB }), "MB"},
	}
}

// perLayer computes the per-layer metrics from the traced repetition, with
// the untraced repetitions as the reference for host time per event and
// tracing overhead.
func perLayer(workload string, reps []repResult, traced repResult) []metric {
	tr := traced.Traced
	sum := func(f func(pointResult) float64) float64 { return sumPoints(traced, f) }
	events := sum(func(p pointResult) float64 { return float64(p.Events) })
	peak := 0.0
	for _, p := range simPoints(traced) {
		peak = max(peak, float64(p.PendingPeak))
	}
	newS, newN := sumSpans(tr.Spans, "core.New")
	var sameSeed []repResult
	for _, r := range reps {
		if r.Seed == traced.Seed {
			sameSeed = append(sameSeed, r)
		}
	}

	// Model identity counts: the mean over fixed-load points, or the
	// capacity search's chosen configuration.
	model := simPoints(traced)
	if workload == wCapacityRouter {
		model = traced.Points[len(traced.Points)-1:]
	}
	mean := func(f func(pointResult) float64) float64 {
		t := 0.0
		for _, p := range model {
			t += f(p)
		}
		return t / float64(max(len(model), 1))
	}

	ms := []metric{
		{"sim.events", events, "count"},
		{"sim.proc_starts", sum(func(p pointResult) float64 { return float64(p.ProcStarts) }), "count"},
		{"sim.ns_per_event", medianOver(reps, func(r repResult) float64 {
			return 1e9 * sumPoints(r, func(p pointResult) float64 { return p.RunS }) /
				sumPoints(r, func(p pointResult) float64 { return float64(p.Events) })
		}), "ns"},
		{"sim.events_per_s", medianOver(reps, func(r repResult) float64 {
			return sumPoints(r, func(p pointResult) float64 { return float64(p.Events) }) / r.WallS
		}), "1/s"},
		{"sim.pending_mean", sum(func(p pointResult) float64 { return p.PendingSum }) / max(events, 1), "count"},
		{"sim.pending_peak", peak, "count"},
		{"netsim.drops", sum(func(p pointResult) float64 { return float64(p.NetDrops) }), "count"},
		{"tcp.retransmits", sum(func(p pointResult) float64 { return float64(p.Retransmits) }), "count"},
		{"trace.spans", sum(func(p pointResult) float64 { return float64(p.TraceSpans) }), "count"},
		{"telemetry.gcs_msgs", sum(func(p pointResult) float64 { return float64(p.TelemetryGCSMsgs) }), "count"},
		{"db.ctl_msgs_per_txn", mean(func(p pointResult) float64 { return p.CtlMsgsPerTxn }), "count"},
		{"db.data_msgs_per_txn", mean(func(p pointResult) float64 { return p.DataMsgsPerTxn }), "count"},
		{"db.lock_waits_per_txn", mean(func(p pointResult) float64 { return p.LockWaitsPerTxn }), "count"},
		{"db.buffer_hit_ratio", mean(func(p pointResult) float64 { return p.BufferHitRatio }), "ratio"},
		{"db.disk_reads_per_txn", mean(func(p pointResult) float64 { return p.DiskReadsPerTxn }), "count"},
		{"tpcc.commits", sum(func(p pointResult) float64 { return float64(p.Commits) }), "count"},
		{"core.new_s", newS / float64(max(newN, 1)), "s"},
		{"core.points", float64(newN), "count"},
		{"gc.alloc_bytes_per_event", float64(tr.AllocBytes) / max(events, 1), "B"},
		{"gc.cycles", float64(tr.GCCycles), "count"},
		{"profile.total_s", tr.ProfileS, "s"},
		{"trace_overhead_ratio", traced.WallS / medianOver(sameSeed, func(r repResult) float64 { return r.WallS }), "ratio"},
	}
	for _, b := range profileBuckets {
		name := b + ".self_s"
		if strings.HasPrefix(b, "rt.") {
			name = b + "_s"
		}
		ms = append(ms, metric{name, tr.Buckets[b], "s"})
	}
	for _, l := range tr.Layers {
		ms = append(ms, metric{l.Name, l.NsPerOp, "ns"},
			metric{strings.TrimSuffix(l.Name, "_ns") + "_allocs", l.AllocsPerOp, "allocs/op"})
	}

	var probes, useful, busy float64
	if c := traced.Capacity; c != nil {
		probes = float64(len(simPoints(traced)))
		useful = float64(c.UsefulPath) / max(probes, 1)
		busy = c.ProbeBusyS / (traced.WallS * float64(c.Workers))
	}
	ms = append(ms,
		metric{"runner.probes", probes, "count"},
		metric{"runner.probe_useful_ratio", useful, "ratio"},
		metric{"runner.worker_busy_ratio", busy, "ratio"})

	sort.Slice(ms, func(i, j int) bool {
		return slices.Index(perLayerNames, ms[i].name) < slices.Index(perLayerNames, ms[j].name)
	})
	return ms
}

// verdict is the outcome of the correctness check.
type verdict struct {
	attempted, failed int
	correct           bool
	problems          []string
}

// check applies the correctness rules to every point of every repetition:
// a point fails if it errs, commits nothing, reports transaction failures
// on these fault-free workloads, or its fingerprint differs from the first
// repetition of its seed (untraced repetitions first, the traced one
// last). A
// repetition whose process failed counts as one failed attempt.
func check(reps []repResult, traced *repResult, repErrs []string) verdict {
	v := verdict{}
	all := append([]repResult(nil), reps...)
	if traced != nil {
		all = append(all, *traced)
	}
	ref := map[string]string{}
	for i, r := range all {
		kind := fmt.Sprintf("untraced #%d", i+1)
		if traced != nil && i == len(all)-1 {
			kind = "traced"
		}
		for _, p := range r.Points {
			v.attempted++
			why := ""
			key := fmt.Sprintf("seed %d point %s", r.Seed, p.Label)
			switch first, seen := ref[key]; {
			case p.Err != "":
				why = "error: " + p.Err
			case p.Commits == 0:
				why = "committed nothing"
			case p.Failures > 0:
				why = fmt.Sprintf("%d transaction failures", p.Failures)
			case seen && first != p.Fingerprint:
				why = fmt.Sprintf("fingerprint %s differs from %s", p.Fingerprint, first)
			case !seen:
				ref[key] = p.Fingerprint
			}
			if why != "" {
				v.failed++
				v.problems = append(v.problems, fmt.Sprintf("%s %s: %s", kind, key, why))
			}
		}
	}
	for _, e := range repErrs {
		v.attempted++
		v.failed++
		v.problems = append(v.problems, e)
	}
	v.correct = v.failed == 0
	return v
}
