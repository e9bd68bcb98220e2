package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// childEnv carries a repetition request to a child process. Each
// repetition runs in a process of its own, so peak RSS and heap state
// belong to that repetition alone.
const childEnv = "SIMBENCH_CHILD"

// request is one repetition of one workload.
type request struct {
	Workload string
	Seed     uint64
	Traced   bool
	Tiny     bool // self-test sizing
}

// repResult is what a child reports back.
type repResult struct {
	Seed     uint64
	Points   []pointResult
	Capacity *capacityOutcome `json:",omitempty"`
	WallS    float64          // host seconds for the whole workload
	Traced   *tracedResult    `json:",omitempty"`

	// Filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
	CPUS      float64 `json:"-"` // user + system CPU seconds
}

// tracedResult holds what only the traced run measures.
type tracedResult struct {
	ProfileS   float64            // total sampled CPU seconds
	Buckets    map[string]float64 // CPU seconds by layer bucket
	AllocBytes uint64
	GCCycles   uint32
	Layers     []layerResult
	Spans      []span
}

// childMain runs the repetition described by the environment and writes
// its result as JSON to stdout.
func childMain(reqJSON string) int {
	var req request
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		fmt.Fprintln(os.Stderr, "simbench child:", err)
		return 2
	}
	res, err := runRep(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "simbench child:", err)
		return 1
	}
	return 0
}

// runRep runs the workload once. The traced repetition installs the kernel
// tracer, records spans, profiles the CPU and then runs the layer drivers
// outside the profile.
func runRep(req request) (repResult, error) {
	sz := benchSizing
	if req.Tiny {
		sz = tinySizing
	}
	wr := &workloadRun{workload: req.Workload, seed: req.Seed, sz: sz, traced: req.Traced}
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	if req.Traced {
		wr.spans = newRecorder()
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return repResult{}, err
		}
	}
	points, capOut, wall := wr.run()
	res := repResult{Seed: req.Seed, Points: points, Capacity: capOut, WallS: wall}
	if !req.Traced {
		return res, nil
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)

	tr := &tracedResult{AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc, GCCycles: ms1.NumGC - ms0.NumGC}
	var err error
	if tr.Buckets, tr.ProfileS, err = splitProfile(prof.Bytes()); err != nil {
		return repResult{}, err
	}
	sp := wr.spans.begin("layer drivers", -1)
	tr.Layers, err = runDrivers(driverInputsFor(req, sz, points), wr.spans, sp)
	wr.spans.end(sp)
	if err != nil {
		return repResult{}, err
	}
	tr.Spans = wr.spans.spans
	res.Traced = tr
	return res, nil
}

// driverInputsFor sizes the layer drivers from the traced run's points.
func driverInputsFor(req request, sz sizing, points []pointResult) driverInputs {
	in := driverInputs{ops: 100_000}
	if req.Tiny {
		in.ops = 1000
	}
	var pendingSum, hits float64
	var events uint64
	var nHits int
	for _, pr := range points {
		if pr.Label == capacityLabel {
			continue
		}
		pendingSum += pr.PendingSum
		events += pr.Events
		hits += pr.BufferHitRatio
		nHits++
		in.stockRows = max(in.stockRows, pr.StockRows)
	}
	if events > 0 {
		in.pendingMean = pendingSum / float64(events)
	}
	if nHits > 0 {
		in.hitRatio = hits / float64(nHits)
	}
	if req.Workload == wCapacityRouter {
		in.params, _ = capacityParams(req.Seed, sz)
	} else {
		ps := pointParams(req.Workload, req.Seed, sz)
		in.params = ps[len(ps)-1]
	}
	return in
}
