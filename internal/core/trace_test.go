package core

import (
	"math"
	"strings"
	"testing"

	"dclue/internal/trace"
)

// TestTraceNonPerturbing is the observability layer's central guarantee: a
// fully-traced run (every transaction sampled, events retained)
// follows the exact same trajectory as an untraced run. Everything outside
// the breakdown — every counter, percentile and timeline point — must hash
// identically.
func TestTraceNonPerturbing(t *testing.T) {
	p := quickParams(2)
	base := mustRun(t, p)

	col := trace.NewCollector(1)
	col.KeepEvents(0)
	p.Trace = col
	traced := mustRun(t, p)

	if got, want := traced.FingerprintSansObs(), base.Fingerprint(); got != want {
		t.Fatalf("traced run diverged: fingerprint %x, untraced %x\ntraced:  %vuntraced: %v",
			got, want, traced, base)
	}
	if traced.Breakdown.Sampled == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestTracePhaseSum checks the decomposition's accounting identity: the six
// phase means sum to the span total exactly, and — at sampling stride 1,
// where the sampled population is every measured transaction — the span
// total matches the independently tallied mean response time.
func TestTracePhaseSum(t *testing.T) {
	p := quickParams(2)
	p.Trace = trace.NewCollector(1)
	m := mustRun(t, p)

	b := m.Breakdown
	if b.Sampled == 0 {
		t.Fatal("no spans recorded")
	}
	if diff := math.Abs(b.Sum() - b.TotalMs); diff > 1e-6*b.TotalMs+1e-9 {
		t.Fatalf("phases sum to %.6fms, span total %.6fms", b.Sum(), b.TotalMs)
	}
	if diff := math.Abs(b.TotalMs - m.RespTimeMs); diff > 0.05*m.RespTimeMs {
		t.Fatalf("span total %.3fms vs response time %.3fms: off by more than 5%%",
			b.TotalMs, m.RespTimeMs)
	}
	// A healthy warm run does real work in every major phase.
	if b.CPUMs <= 0 || b.FabricMs <= 0 {
		t.Fatalf("degenerate breakdown: %+v", b)
	}
}

// TestTraceSampling checks that a stride-n collector records roughly 1/n of
// the transactions a stride-1 collector does, and that percentiles (which do
// not depend on tracing) are unaffected.
func TestTraceSampling(t *testing.T) {
	p := quickParams(1)
	p.Trace = trace.NewCollector(1)
	full := mustRun(t, p)

	p.Trace = trace.NewCollector(8)
	sampled := mustRun(t, p)

	if full.Breakdown.Sampled == 0 || sampled.Breakdown.Sampled == 0 {
		t.Fatalf("no spans: full=%d sampled=%d", full.Breakdown.Sampled, sampled.Breakdown.Sampled)
	}
	ratio := float64(full.Breakdown.Sampled) / float64(sampled.Breakdown.Sampled)
	if ratio < 6 || ratio > 10 {
		t.Fatalf("stride-8 sampling kept %d of %d spans (ratio %.1f, want ~8)",
			sampled.Breakdown.Sampled, full.Breakdown.Sampled, ratio)
	}
	if full.FingerprintSansObs() != sampled.FingerprintSansObs() {
		t.Fatal("sampling stride changed the simulated trajectory")
	}
	if full.RespTimeP95Ms != sampled.RespTimeP95Ms {
		t.Fatal("always-on percentiles differ between sampling strides")
	}
}

// TestTraceEvents checks that an event-retaining run collects span
// segments suitable for export, under its derived run label.
func TestTraceEvents(t *testing.T) {
	p := quickParams(2)
	col := trace.NewCollector(4)
	col.KeepEvents(0)
	p.Trace = col
	mustRun(t, p)

	runs := col.Runs()
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.Sampled() == 0 {
		t.Fatal("no spans sampled")
	}
	if !strings.HasPrefix(r.Label(), "n2-hw-") {
		t.Fatalf("run label %q, want the n2-hw-<hash> form", r.Label())
	}
	var out strings.Builder
	if err := col.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"type":"seg"`) || !strings.Contains(out.String(), `"type":"txn"`) {
		t.Fatalf("export lacks retained span segments:\n%.500s", out.String())
	}
}

// TestRunLabelTracksParams checks the derived export label: the same
// parameters give the same label, and any parameter change (here one the
// readable prefix does not show) gives a different one.
func TestRunLabelTracksParams(t *testing.T) {
	p, q := quickParams(4), quickParams(4)
	if p.runLabel() != q.runLabel() {
		t.Fatalf("equal params, different labels: %q vs %q", p.runLabel(), q.runLabel())
	}
	q.FaultSpec = "loss:interlata:0@60+10=0.1"
	if p.runLabel() == q.runLabel() {
		t.Fatalf("different params share label %q", p.runLabel())
	}
	q = p
	q.Trace = trace.NewCollector(1)
	if p.runLabel() != q.runLabel() {
		t.Fatal("attaching a collector changed the label")
	}
}
