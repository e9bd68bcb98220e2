package dclue_test

import (
	"testing"

	"dclue"
)

// TestFacadeSmoke drives the public API end to end: configure, run, read
// metrics — the quickstart example as a test.
func TestFacadeSmoke(t *testing.T) {
	p := dclue.DefaultParams(2)
	p.Warehouses = 8
	p.CustomersPerDist = 30
	p.Items = 200
	p.Warmup = 40 * dclue.Second
	p.Measure = 100 * dclue.Second
	m, err := dclue.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.TpmC <= 0 {
		t.Fatalf("no throughput: %+v", m)
	}
	if m.Nodes != 2 {
		t.Fatalf("metrics nodes %d", m.Nodes)
	}
}

func TestFacadeFigureRegistry(t *testing.T) {
	perKind := map[dclue.ExperimentKind]int{}
	for _, f := range dclue.Figures() {
		perKind[f.Kind]++
	}
	if perKind[dclue.PaperFigure] != 15 {
		t.Fatalf("paper figures %d, want 15", perKind[dclue.PaperFigure])
	}
	if perKind[dclue.AblationExperiment] < 5 {
		t.Fatalf("ablations %d", perKind[dclue.AblationExperiment])
	}
	if _, err := dclue.LookupFigure("no-such"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if f, err := dclue.LookupFigure("qos"); err != nil || f.ID != "abl-qos" {
		t.Fatalf("LookupFigure(qos) = %q, %v", f.ID, err)
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() dclue.Metrics {
		p := dclue.DefaultParams(1)
		p.Warehouses = 6
		p.CustomersPerDist = 30
		p.Items = 100
		p.Warmup = 30 * dclue.Second
		p.Measure = 60 * dclue.Second
		m, err := dclue.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.TpmC != b.TpmC || a.RespTimeMs != b.RespTimeMs {
		t.Fatalf("nondeterministic facade runs: %v vs %v", a.TpmC, b.TpmC)
	}
}
