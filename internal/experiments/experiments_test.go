package experiments

import (
	"strings"
	"testing"

	"dclue/internal/sim"
	"dclue/internal/stats"
)

// TestAllFiguresRegistered checks the one registry holds every experiment
// exactly once: the 15 paper figures, 6 ablations, 6 fault, 1 trace and 1
// telemetry experiment.
func TestAllFiguresRegistered(t *testing.T) {
	figs := Registry()
	if len(figs) != 29 {
		t.Fatalf("registered %d experiments, want 29", len(figs))
	}
	perKind := map[Kind]int{}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate experiment id %s", f.ID)
		}
		seen[f.ID] = true
		if f.Run == nil || f.Title == "" {
			t.Fatalf("experiment %s incomplete", f.ID)
		}
		perKind[f.Kind]++
	}
	want := map[Kind]int{Paper: 15, Ablation: 6, Fault: 6, Trace: 1, Telemetry: 1}
	for k, n := range want {
		if perKind[k] != n {
			t.Errorf("%d %s experiments, want %d", perKind[k], k, n)
		}
	}
	if len(perKind) != len(want) {
		t.Errorf("unexpected kinds: %v", perKind)
	}
}

// TestLookupForms checks every short form the registry accepts, one per
// family, and that a short form naming two experiments is rejected with
// both candidates in the error.
func TestLookupForms(t *testing.T) {
	for id, want := range map[string]string{
		"fig06": "fig06", "06": "fig06", "6": "fig06", "16": "fig16",
		"abl-qos": "abl-qos", "qos": "abl-qos",
		"flt-loss": "flt-loss", "loss": "flt-loss", "failover-ckpt": "flt-failover-ckpt",
		"lat-decomp":  "lat-decomp",
		"util-decomp": "util-decomp",
	} {
		f, err := Lookup(id)
		if err != nil || f.ID != want {
			t.Errorf("Lookup(%q) = %q, %v; want %s", id, f.ID, err, want)
		}
	}
	for _, id := range []string{"fig99", "99", "", "abl-", "nope"} {
		if f, err := Lookup(id); err == nil {
			t.Errorf("Lookup(%q) accepted unknown id as %s", id, f.ID)
		}
	}
	_, err := Lookup("decomp")
	if err == nil || !strings.Contains(err.Error(), "lat-decomp") || !strings.Contains(err.Error(), "util-decomp") {
		t.Fatalf("Lookup(\"decomp\") = %v, want an ambiguity error naming lat-decomp and util-decomp", err)
	}
}

func TestResultTableRendering(t *testing.T) {
	s := &stats.Series{Name: "a"}
	s.Add(1, 10)
	s.Add(2, 20)
	r := Result{ID: "figXX", Title: "demo", XLabel: "nodes",
		Series: []*stats.Series{s}, Notes: "note"}
	out := r.Table()
	for _, want := range []string{"figXX", "demo", "nodes", "20", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if len(o.nodeSweep()) < 4 {
		t.Fatal("full sweep too small")
	}
	o.Quick = true
	if len(o.nodeSweep()) > 4 {
		t.Fatal("quick sweep too big")
	}
	if o.maxWhPerNode() >= (Options{}).maxWhPerNode() {
		t.Fatal("quick search cap not smaller")
	}
	p := o.baseParams(2)
	if p.Nodes != 2 {
		t.Fatalf("baseParams nodes %d", p.Nodes)
	}
	if p.Warmup >= 150*sim.Second {
		t.Fatal("quick warmup not reduced")
	}
	o.Seed = 42
	if o.baseParams(2).Seed != 42 {
		t.Fatal("seed not applied")
	}
}

// TestFig2QuickShape runs the cheapest real figure end-to-end and checks
// the paper's qualitative shape: IPC messages per transaction increase
// with cluster size at affinity 0.8.
func TestFig2QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r := Fig2(Options{Quick: true, Seed: 1})
	if len(r.Series) != 2 {
		t.Fatalf("series %d", len(r.Series))
	}
	ctl := r.Series[0].Points
	if len(ctl) < 3 {
		t.Fatalf("points %d", len(ctl))
	}
	if !(ctl[0].Y < ctl[len(ctl)-1].Y) {
		t.Fatalf("ctl msgs/txn not increasing with nodes: %+v", ctl)
	}
	for _, p := range ctl {
		if p.Y < 0 {
			t.Fatalf("negative message count: %+v", p)
		}
	}
}
