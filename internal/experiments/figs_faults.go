package experiments

import (
	"fmt"

	"dclue/internal/core"
	"dclue/internal/sim"
	"dclue/internal/stats"
)

// Fault experiments: graceful degradation under injected network, node and
// storage faults. These extend beyond the paper's scope — §2.3 assumes a
// fault-free fabric — and quantify how the cache-fusion protocol behaves
// when the unified Ethernet fabric misbehaves: lost XFER and status PDUs
// become bounded timeouts, retried fetches and (at worst) aborted-and-
// retried transactions, never hung workers.

// faultParams is the common 4-node configuration the fault experiments
// perturb: two LATAs so the inter-LATA path matters, moderate affinity so
// cache-fusion traffic crosses it.
func (o Options) faultParams() core.Params {
	p := o.baseParams(4)
	p.NodesPerLata = 2
	p.Affinity = 0.8
	p.Warehouses = 6 * 4
	p.Warmup = 60 * sim.Second
	p.Measure = 150 * sim.Second
	if o.Quick {
		p.Warmup = 40 * sim.Second
		p.Measure = 100 * sim.Second
	}
	if o.tinyRuns {
		p.Warmup = 20 * sim.Second
		p.Measure = 40 * sim.Second
	}
	return p
}

// FaultLossSweep measures throughput, transaction retries and protocol
// timeouts as burst loss of rising intensity hits LATA 0's uplink pair for
// the middle half of the measurement window.
func FaultLossSweep(o Options) Result {
	p := o.faultParams()
	start := (p.Warmup + p.Measure/4).Seconds()
	dur := (p.Measure / 2).Seconds()

	intensities := []float64{0, 0.05, 0.1, 0.2, 0.3}
	if o.Quick {
		intensities = []float64{0, 0.1, 0.3}
	}

	ms := make([]core.Metrics, len(intensities))
	o.forEach(len(intensities), func(i int) {
		loss := intensities[i]
		q := p
		if loss > 0 {
			q.FaultSpec = fmt.Sprintf("loss:interlata:0@%g+%g=%g", start, dur, loss)
		}
		o.logf("flt-loss: loss=%.2f", loss)
		ms[i] = o.mustRun(q)
	})
	tpm := &stats.Series{Name: "tpmC"}
	retries := &stats.Series{Name: "retries/min"}
	timeouts := &stats.Series{Name: "fetchTO/min"}
	min := p.Measure.Seconds() / 60
	for i, loss := range intensities {
		tpm.Add(loss, ms[i].TpmC)
		retries.Add(loss, float64(ms[i].Retries)/min)
		timeouts.Add(loss, float64(ms[i].FetchTimeouts)/min)
	}
	return Result{
		ID: "flt-loss", Title: "Degradation vs burst-loss intensity (inter-LATA, half the window)",
		XLabel: "loss probability", Series: []*stats.Series{tpm, retries, timeouts},
		Notes: "Fault-injection extension (beyond the paper's fault-free §2.3 scope).",
	}
}

// FaultRecovery runs one faulted scenario — node 1's access link goes down,
// then the inter-LATA path takes burst loss — and reports the committed-
// transaction timeline: the dips must align with the fault windows and the
// rate must recover after each one.
func FaultRecovery(o Options) Result {
	p := o.faultParams()
	p.TimelineBucket = 5 * sim.Second
	w := p.Warmup.Seconds()
	p.FaultSpec = fmt.Sprintf("linkdown:node:1@%g+15;loss:interlata:0@%g+20=0.3", w+30, w+80)

	o.logf("flt-recovery: %s", p.FaultSpec)
	m := o.mustRun(p)
	rate := &stats.Series{Name: "txn/s"}
	for _, pt := range m.Timeline {
		rate.Add(pt.T.Seconds(), pt.TxnRate)
	}
	return Result{
		ID: "flt-recovery", Title: "Throughput through a link-down (node 1) then burst-loss (inter-LATA) fault",
		XLabel: "time (s)", Series: []*stats.Series{rate},
		Notes: fmt.Sprintf("faults: %s | drops=%d corrupt=%d fetchTO=%d fetchFail=%d retries=%d failures=%d",
			p.FaultSpec, m.FaultDrops, m.CorruptDrops, m.FetchTimeouts, m.FetchFails, m.Retries, m.Failures),
	}
}

// FaultLayers compares equal-length fault windows injected at each layer —
// network (burst loss), node (CPU slowdown / freeze) and storage (latency
// spike, I/O errors) — against the healthy baseline.
func FaultLayers(o Options) Result {
	p := o.faultParams()
	start := (p.Warmup + p.Measure/4).Seconds()
	dur := (p.Measure / 2).Seconds()

	cases := []struct {
		name string
		spec string
	}{
		{"healthy", ""},
		{"net-loss", fmt.Sprintf("loss:interlata:0@%g+%g=0.2", start, dur)},
		{"node-slow", fmt.Sprintf("cpuslow:node:1@%g+%g=4", start, dur)},
		{"node-freeze", fmt.Sprintf("freeze:node:1@%g+10", start)},
		{"disk-slow", fmt.Sprintf("diskslow:node:1@%g+%g=8", start, dur)},
		{"disk-errors", fmt.Sprintf("diskerr:node:1@%g+%g=0.2", start, dur)},
	}
	ms := make([]core.Metrics, len(cases))
	o.forEach(len(cases), func(i int) {
		q := p
		q.FaultSpec = cases[i].spec
		o.logf("flt-layers: %s", cases[i].name)
		ms[i] = o.mustRun(q)
	})
	tpm := &stats.Series{Name: "tpmC"}
	fail := &stats.Series{Name: "failures"}
	notes := "Fault-injection extension. Cases: "
	for i, cse := range cases {
		tpm.Add(float64(i), ms[i].TpmC)
		fail.Add(float64(i), float64(ms[i].Failures))
		notes += fmt.Sprintf("%d=%s ", i, cse.name)
	}
	return Result{
		ID: "flt-layers", Title: "Degradation by faulted layer (equal windows on node 1 / inter-LATA 0)",
		XLabel: "case", Series: []*stats.Series{tpm, fail}, Notes: notes,
	}
}
