package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"dclue/internal/sim"
)

const ms = sim.Millisecond

// TestSpanSelfTime exercises the self-time stack: nested phases suspend the
// outer charge, and the per-phase times sum to the server residency.
func TestSpanSelfTime(t *testing.T) {
	c := NewCollector(1)
	r := c.NewRun("unit")
	s := r.StartSpan(0, 7)
	if s == nil {
		t.Fatal("sample-every-1 span not created")
	}

	s.BeginServer(10 * ms)
	s.Enter(10*ms, PhaseGCS)  //  GCS: 10..20 (self 10)
	s.Enter(20*ms, PhaseDisk) //  disk: 20..30 and 35..40 (self 15)
	s.Enter(30*ms, PhaseCPU)  //  cpu: 30..35 (self 5)
	s.Exit(35 * ms)           //  back in disk
	s.Exit(40 * ms)           //  back in GCS (zero further time)
	s.Exit(40 * ms)
	s.EndServer(42 * ms) //       other: 40..42 (ground frame)
	s.Finish(50 * ms)    //       fabric: 50-0 minus server 32 = 18

	want := map[Phase]sim.Time{
		PhaseGCS:    10 * ms,
		PhaseDisk:   15 * ms,
		PhaseCPU:    5 * ms,
		PhaseOther:  2 * ms,
		PhaseFabric: 18 * ms,
		PhaseLock:   0,
	}
	var sum sim.Time
	for ph, w := range want {
		if got := s.PhaseTime(ph); got != w {
			t.Errorf("%v self time = %v, want %v", ph, got, w)
		}
		sum += s.PhaseTime(ph)
	}
	if sum != 50*ms {
		t.Errorf("phase sum %v != span total 50ms", sum)
	}
	if r.Sampled() != 1 {
		t.Errorf("sampled = %d", r.Sampled())
	}
	if got := r.TotalMeanMs(); got != 50 {
		t.Errorf("total mean = %gms", got)
	}
	if got := r.PhaseMeanMs(PhaseGCS); got != 10 {
		t.Errorf("gcs mean = %gms", got)
	}
}

// TestSampling checks the deterministic modular sampler.
func TestSampling(t *testing.T) {
	c := NewCollector(3)
	r := c.NewRun("sampling")
	var spans int
	for i := 0; i < 10; i++ {
		if s := r.StartSpan(sim.Time(i), 0); s != nil {
			spans++
		}
	}
	if spans != 4 { // requests 0, 3, 6, 9
		t.Errorf("sampled %d of 10 at stride 3, want 4", spans)
	}
	if NewCollector(0).sampleEvery != 1 {
		t.Error("stride < 1 not clamped to 1")
	}
}

// TestUnsampledSpanIsNil documents the disabled fast path: an unsampled
// transaction gets a nil span and the Enter/Exit helpers see a nil
// interface via sim.Proc.
func TestUnsampledSpanIsNil(t *testing.T) {
	c := NewCollector(2)
	r := c.NewRun("x")
	if s := r.StartSpan(0, 0); s == nil {
		t.Fatal("first request must be sampled")
	}
	if s := r.StartSpan(0, 0); s != nil {
		t.Fatal("second request sampled at stride 2")
	}
}

// TestEnterExitHelpers drives the package-level helpers through a real
// kernel process carrying a span.
func TestEnterExitHelpers(t *testing.T) {
	s := sim.New()
	c := NewCollector(1)
	r := c.NewRun("helpers")
	var span *Span
	s.Spawn("worker", func(p *sim.Proc) {
		// No span attached: helpers must be no-ops.
		Enter(p, PhaseCPU)
		p.Sleep(1 * ms)
		Exit(p)

		span = r.StartSpan(p.Now(), 3)
		span.BeginServer(p.Now())
		p.SetSpan(span)
		Enter(p, PhaseDisk)
		p.Sleep(4 * ms)
		Exit(p)
		p.SetSpan(nil)
		span.EndServer(p.Now())
		span.Finish(p.Now())
	})
	s.RunAll()
	if span.PhaseTime(PhaseCPU) != 0 {
		t.Errorf("span-less Enter charged CPU: %v", span.PhaseTime(PhaseCPU))
	}
	if span.PhaseTime(PhaseDisk) != 4*ms {
		t.Errorf("disk self time = %v, want 4ms", span.PhaseTime(PhaseDisk))
	}
}

// TestExportFormats checks both writers produce parseable output with the
// expected record shapes, and number runs in label order rather than
// registration order.
func TestExportFormats(t *testing.T) {
	c := NewCollector(1)
	c.KeepEvents(0)
	c.NewRun("z registered first") // no events: only its process record
	r := c.NewRun(`case "a"`)
	s := r.StartSpan(0, 5)
	s.BeginServer(1 * ms)
	s.Enter(1*ms, PhaseCPU)
	s.Exit(2 * ms)
	s.EndServer(2 * ms)
	s.Finish(3 * ms)

	var chrome strings.Builder
	if err := c.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(chrome.String()), &events); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, chrome.String())
	}
	var haveTxn, haveCPU bool
	pids := map[string]float64{}
	for _, e := range events {
		switch e["name"] {
		case "process_name":
			pids[e["args"].(map[string]any)["name"].(string)] = e["pid"].(float64)
		case "txn":
			haveTxn = true
			if e["ph"] != "X" || e["dur"].(float64) != 3000 || e["pid"].(float64) != 1 {
				t.Errorf("txn event malformed: %v", e)
			}
		case "cpu":
			haveCPU = true
		default:
			t.Errorf("unexpected chrome record: %v", e)
		}
	}
	if !haveTxn || !haveCPU {
		t.Fatalf("missing chrome records (txn=%v cpu=%v):\n%s", haveTxn, haveCPU, chrome.String())
	}
	if pids[`case "a"`] != 1 || pids["z registered first"] != 2 {
		t.Errorf("pids not assigned in label order: %v", pids)
	}

	var jsonl strings.Builder
	if err := c.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 2 { // cpu seg, txn
		t.Fatalf("want 2 JSONL lines, got %d:\n%s", len(lines), jsonl.String())
	}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		if rec["label"] != `case "a"` {
			t.Errorf("label mangled by escaping: %q", rec["label"])
		}
		if rec["run"] != 1.0 {
			t.Errorf("run number %v, want 1 (first label)", rec["run"])
		}
	}
}

// TestEventCap checks retention stops (and is counted) at the cap.
func TestEventCap(t *testing.T) {
	c := NewCollector(1)
	c.KeepEvents(2)
	r := c.NewRun("cap")
	for i := 0; i < 5; i++ {
		s := r.StartSpan(sim.Time(i)*ms, 0)
		s.BeginServer(sim.Time(i) * ms)
		s.EndServer(sim.Time(i)*ms + ms)
		s.Finish(sim.Time(i)*ms + ms)
	}
	if len(r.events) != 2 {
		t.Errorf("retained %d events at cap 2", len(r.events))
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", r.Dropped())
	}
	if r.Sampled() != 5 {
		t.Errorf("histograms must keep counting past the cap: sampled=%d", r.Sampled())
	}
}
