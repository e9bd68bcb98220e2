package core

import (
	"math"
	"strings"
	"testing"

	"dclue/internal/sim"
	"dclue/internal/telemetry"
)

// TestTelemetryNonPerturbing is the telemetry layer's central guarantee: a
// fully instrumented run (every link, queue, CPU, disk and GCS hooked, with
// per-second timelines) follows the exact same trajectory as a bare run.
// Everything outside the utilization decomposition must hash identically.
func TestTelemetryNonPerturbing(t *testing.T) {
	p := quickParams(2)
	base := mustRun(t, p)

	p.Telemetry = telemetry.NewCollector(sim.Second)
	telem := mustRun(t, p)

	if got, want := telem.FingerprintSansObs(), base.Fingerprint(); got != want {
		t.Fatalf("telemetered run diverged: fingerprint %x, bare %x\ntelemetered: %vbare: %v",
			got, want, telem, base)
	}
	if !telem.UtilDecomp.Enabled {
		t.Fatal("telemetered run reported no decomposition")
	}
	if base.UtilDecomp.Enabled {
		t.Fatal("bare run reported a decomposition")
	}
}

// TestTelemetryAttributionExact checks the attribution identity the
// decomposition advertises: summed per class, a link's telemetry busy time
// equals the link's own busy counter (integer sim.Time equality, surfaced as
// AttribMismatch), and the reported class-group sums agree with the group
// totals to float rounding.
func TestTelemetryAttributionExact(t *testing.T) {
	p := quickParams(2)
	p.Telemetry = telemetry.NewCollector(0)
	m := mustRun(t, p)

	u := m.UtilDecomp
	if u.AttribMismatch != 0 {
		t.Fatalf("%d links with per-class busy times not summing to the link counter", u.AttribMismatch)
	}
	check := func(name string, cu ClassUtil, total float64) {
		if diff := math.Abs(cu.Sum() - total); diff > 1e-9*(total+1) {
			t.Errorf("%s: class sum %.9fs vs group total %.9fs", name, cu.Sum(), total)
		}
	}
	check("node links", u.NodeLinks, u.NodeLinksBusySec)
	check("inter-LATA", u.InterLata, u.InterLataBusySec)
	check("client link", u.ClientLink, u.ClientBusySec)

	// A healthy warm run exercises every instrumented component (heartbeats
	// only flow in crash/restart runs — see TestTelemetrySurvivesRestart).
	if u.NodeLinks.IPC <= 0 || u.NodeLinks.ISCSI <= 0 || u.NodeLinks.Client <= 0 {
		t.Fatalf("degenerate class decomposition: %+v", u.NodeLinks)
	}
	if u.CPUThreadSec <= 0 || u.DiskBusySec <= 0 || u.LogDiskBusySec <= 0 {
		t.Fatalf("idle platform instruments: cpu=%v disk=%v log=%v", u.CPUThreadSec, u.DiskBusySec, u.LogDiskBusySec)
	}
	if u.GCSCtlMsgs == 0 || u.GCSDataMsgs == 0 {
		t.Fatalf("GCS instruments saw no messages: %+v", u)
	}
}

// TestTelemetryQueueOccupancy checks that queue occupancy is observed,
// exactly, under the fabric's queue names: every node NIC and router port
// has a queue instrument, and the run drives at least one of them above
// empty.
func TestTelemetryQueueOccupancy(t *testing.T) {
	p := quickParams(2)
	col := telemetry.NewCollector(0)
	p.Telemetry = col
	mustRun(t, p)

	regs := col.Registries()
	if len(regs) != 1 {
		t.Fatalf("got %d registries, want 1", len(regs))
	}
	named := map[string]bool{}
	ports, busy := 0, false
	for _, q := range regs[0].Queues() {
		named[q.Name] = true
		if strings.HasPrefix(q.Name, "inner") || strings.HasPrefix(q.Name, "outer") {
			ports++
		}
		busy = busy || q.Occ.Max() > 0
	}
	if !named["node0.nic"] || !named["node1.nic"] {
		t.Fatalf("node NIC queue instruments missing: %v", named)
	}
	if ports == 0 {
		t.Fatalf("no router-port queue instruments: %v", named)
	}
	if !busy {
		t.Fatal("no queue saw any occupancy")
	}
}

// TestTelemetrySurvivesRestart: instruments stay attached across a node
// crash and rejoin — the fresh engine re-attaches the same cumulative CPU
// and GCS instruments, and the recovery pipeline records its phase timeline
// into the registry (visible through the JSONL export).
func TestTelemetrySurvivesRestart(t *testing.T) {
	p := quickParams(2)
	p.FaultSpec = "crash:dp1@70+0;restart:dp1@100+0"
	col := telemetry.NewCollector(0)
	p.Telemetry = col
	m := mustRun(t, p)
	if m.UtilDecomp.AttribMismatch != 0 {
		t.Fatalf("attribution broke across restart: %d mismatches", m.UtilDecomp.AttribMismatch)
	}
	if m.UtilDecomp.NodeLinks.Heartbeat <= 0 {
		t.Fatalf("membership run recorded no heartbeat traffic: %+v", m.UtilDecomp.NodeLinks)
	}

	var out strings.Builder
	if err := col.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"fence", "remaster", "replay", "open", "readmit"} {
		if !strings.Contains(out.String(), `"phase":"`+phase+`"`) {
			t.Errorf("no %q recovery phase in the export", phase)
		}
	}
	if !strings.Contains(out.String(), `"component":"recover-1"`) {
		t.Error("recovery phases not attributed to the dead node")
	}
}
