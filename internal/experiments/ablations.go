package experiments

import (
	"fmt"

	"dclue/internal/core"
	"dclue/internal/stats"
)

// Ablations exercise the design choices DESIGN.md calls out and the parts
// of the paper's design space it names but leaves unexplored: the QoS
// remedy its conclusion asks for (WFQ), the shared-IO SAN architecture of
// §2.1 it set aside, the subpage-size tuning of §2.3, and the storage-path
// mechanisms (group commit, elevator) whose value the model quantifies.

// AblationQoS compares the paper's harmful arrangement (FTP at AF21 strict
// priority) against WFQ at the router ports, at rising cross-traffic load.
// The paper's conclusion asks exactly for this: a scheme that minimizes
// inter-application interference "yet provides a good performance for all".
func AblationQoS(o Options) Result {
	loads := []float64{0, 200e6, 400e6, 600e6}
	if o.Quick {
		loads = []float64{0, 400e6}
	}
	base := o.baseParams(8)
	base.NodesPerLata = 4
	base.Affinity = 0.8
	base.LowComputation = true
	cap0 := o.capacity(base)
	wh := cap0.Warehouses

	wfqs := []bool{false, true}
	ms := make([]core.Metrics, len(wfqs)*len(loads))
	o.grid(len(wfqs), len(loads), func(w, i int) {
		p := base
		p.CrossTrafficBps = loads[i]
		p.CrossTrafficPriority = true
		p.WFQRouters = wfqs[w]
		m := o.fixedLoad(p, wh)
		o.logf("abl-qos wfq=%v load=%.0fM: tpmC=%.0f ftp=%.1fM delay=%.2fms",
			wfqs[w], loads[i]/1e6, m.TpmC, m.FTPDeliveredMbps, m.MsgDelayMs)
		ms[w*len(loads)+i] = m
	})
	var series []*stats.Series
	for w, wfq := range wfqs {
		name := "priority routers"
		if wfq {
			name = "WFQ routers"
		}
		dbms := &stats.Series{Name: name + " (tpmC)"}
		ftp := &stats.Series{Name: name + " (FTP Mb/s)"}
		for i, load := range loads {
			dbms.Add(load/1e6, ms[w*len(loads)+i].TpmC)
			ftp.Add(load/1e6, ms[w*len(loads)+i].FTPDeliveredMbps)
		}
		series = append(series, dbms, ftp)
	}
	return Result{
		ID: "abl-qos", Title: "DBMS throughput and FTP goodput vs offered AF21 FTP load",
		XLabel: "FTP Mb/s", Series: series,
		Notes: "Expected: WFQ caps the damage priority scheduling does to DBMS control messages while still carrying FTP traffic.",
	}
}

// AblationSAN compares §2.1's two storage architectures: the distributed
// iSCSI model the paper studies against the Oracle-style shared SAN.
func AblationSAN(o Options) Result {
	nodes := 4
	sans := []bool{false, true}
	affs := []float64{1.0, 0.8}
	caps := make([]core.CapacityResult, len(sans)*len(affs))
	o.grid(len(sans), len(affs), func(s, a int) {
		p := o.baseParams(nodes)
		p.Affinity = affs[a]
		p.CentralSAN = sans[s]
		r := o.capacity(p)
		o.logf("abl-san san=%v aff=%.1f: tpmC=%.0f", sans[s], affs[a], r.Metrics.TpmC)
		caps[s*len(affs)+a] = r
	})
	var series []*stats.Series
	for si, san := range sans {
		name := "distributed iSCSI"
		if san {
			name = "central SAN"
		}
		s := &stats.Series{Name: name}
		for a, aff := range affs {
			s.Add(aff, caps[si*len(affs)+a].Metrics.TpmC)
		}
		series = append(series, s)
	}
	return Result{
		ID: "abl-san", Title: fmt.Sprintf("Storage architecture, %d nodes (scaled tpm-C)", nodes),
		XLabel: "affinity", Series: series,
		Notes: "The SAN removes iSCSI fabric traffic but adds SAN fabric latency to every physical I/O; with warm caches the two converge, which is why the paper's unified-fabric question centers on IPC, not storage.",
	}
}

// runPair evaluates two independent configurations as one two-job sweep.
func (o Options) runPair(a, b core.Params) (core.Metrics, core.Metrics) {
	ps := [2]core.Params{a, b}
	var ms [2]core.Metrics
	o.forEach(2, func(i int) { ms[i] = o.mustRun(ps[i]) })
	return ms[0], ms[1]
}

// AblationSubpage quantifies §2.3's subpage tuning: coarse (8 per block)
// subpages false-share the append-heavy tables.
func AblationSubpage(o Options) Result {
	p := o.baseParams(2)
	p.Warehouses = 8 * 2
	q := p
	q.CoarseSubpages = true
	tuned, coarse := o.runPair(p, q)
	o.logf("abl-subpage tuned: tpmC=%.0f waits/txn=%.2f | coarse: tpmC=%.0f waits/txn=%.2f",
		tuned.TpmC, tuned.LockWaitsPerTxn, coarse.TpmC, coarse.LockWaitsPerTxn)
	a := &stats.Series{Name: "tpmC"}
	b := &stats.Series{Name: "lock waits/txn"}
	a.Add(0, tuned.TpmC)
	a.Add(1, coarse.TpmC)
	b.Add(0, tuned.LockWaitsPerTxn)
	b.Add(1, coarse.LockWaitsPerTxn)
	return Result{
		ID: "abl-subpage", Title: "Row-level (x=0) vs coarse (x=1) subpage locking",
		XLabel: "coarse", Series: []*stats.Series{a, b},
		Notes: "Expected: coarse subpages multiply lock waits via false sharing on append-heavy tables (§2.3's tuning rationale).",
	}
}

// AblationGroupCommit quantifies the log device's group commit.
func AblationGroupCommit(o Options) Result {
	p := o.baseParams(2)
	p.Warehouses = 8 * 2
	q := p
	q.LogBatchLimit = 1
	grouped, serial := o.runPair(p, q)
	o.logf("abl-groupcommit batched: tpmC=%.0f resp=%.0fms | serial: tpmC=%.0f resp=%.0fms",
		grouped.TpmC, grouped.RespTimeMs, serial.TpmC, serial.RespTimeMs)
	a := &stats.Series{Name: "tpmC"}
	b := &stats.Series{Name: "resp ms"}
	a.Add(4, grouped.TpmC)
	a.Add(1, serial.TpmC)
	b.Add(4, grouped.RespTimeMs)
	b.Add(1, serial.RespTimeMs)
	return Result{
		ID: "abl-groupcommit", Title: "Group commit depth 4 vs serial log writes (x=batch limit)",
		XLabel: "batch", Series: []*stats.Series{a, b},
		Notes: "Expected: serial log writes inflate commit latency; throughput holds until the log device saturates.",
	}
}

// AblationElevator quantifies the per-table elevator of §2.3 against FIFO
// disk scheduling, under a deliberately cache-starved configuration so the
// disks actually see queues.
func AblationElevator(o Options) Result {
	p := o.baseParams(2)
	p.Warehouses = 8 * 2
	p.BufferFraction = 0.3 // starve the cache: real disk traffic
	q := p
	q.FIFODisks = true
	scan, fifo := o.runPair(p, q)
	o.logf("abl-elevator scan: tpmC=%.0f resp=%.0fms | fifo: tpmC=%.0f resp=%.0fms",
		scan.TpmC, scan.RespTimeMs, fifo.TpmC, fifo.RespTimeMs)
	a := &stats.Series{Name: "tpmC"}
	b := &stats.Series{Name: "resp ms"}
	a.Add(0, scan.TpmC)
	a.Add(1, fifo.TpmC)
	b.Add(0, scan.RespTimeMs)
	b.Add(1, fifo.RespTimeMs)
	return Result{
		ID: "abl-elevator", Title: "SCAN elevator (x=0) vs FIFO (x=1) disk scheduling",
		XLabel: "fifo", Series: []*stats.Series{a, b},
		Notes: "Expected: under real disk queues the elevator shortens seeks and response times.",
	}
}

// AblationPrewarm shows what the warm start is worth: a cold cluster pays
// for every first touch with a (scaled) disk read during warmup.
func AblationPrewarm(o Options) Result {
	p := o.baseParams(2)
	p.Warehouses = 6 * 2
	q := p
	q.NoPrewarm = true
	warm, cold := o.runPair(p, q)
	o.logf("abl-prewarm warm: tpmC=%.0f | cold: tpmC=%.0f hit=%.3f",
		warm.TpmC, cold.TpmC, cold.BufferHitRatio)
	a := &stats.Series{Name: "tpmC"}
	a.Add(0, warm.TpmC)
	a.Add(1, cold.TpmC)
	b := &stats.Series{Name: "buffer hit ratio"}
	b.Add(0, warm.BufferHitRatio)
	b.Add(1, cold.BufferHitRatio)
	return Result{
		ID: "abl-prewarm", Title: "Warm (x=0) vs cold (x=1) start",
		XLabel: "cold", Series: []*stats.Series{a, b},
		Notes: "Expected: the cold cluster converges toward the warm one as the measurement window grows; short windows understate steady-state throughput.",
	}
}
