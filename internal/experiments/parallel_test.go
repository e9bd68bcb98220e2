package experiments

import (
	"strings"
	"sync"
	"testing"

	"dclue/internal/runner"
	"dclue/internal/sim"
	"dclue/internal/telemetry"
	"dclue/internal/trace"
)

// TestParallelDeterminismEveryFigure is the sweep engine's core contract:
// for every registered experiment, a parallel run renders a table (and
// therefore a fingerprint) byte-identical to the sequential run. Runs use
// the tiny test sizing so the whole registry stays affordable; the golden
// tests cover real Quick-mode output.
func TestParallelDeterminismEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every registered experiment twice")
	}
	for _, f := range Registry() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			seq := f.Run(Options{Quick: true, Seed: 1, tinyRuns: true})
			par := f.Run(Options{Quick: true, Seed: 1, tinyRuns: true, Pool: runner.New(4)})
			if seq.Table() != par.Table() {
				t.Errorf("parallel table diverges from sequential.\n-- sequential --\n%s-- parallel --\n%s",
					seq.Table(), par.Table())
			}
			if seq.Fingerprint() != par.Fingerprint() {
				t.Errorf("fingerprint mismatch: seq %x, par %x", seq.Fingerprint(), par.Fingerprint())
			}
		})
	}
}

// TestExportsIdenticalAtAnyWidth holds both observability exports to the
// contract the tables meet: the trace and telemetry JSONL of a sweep are
// byte-identical at pool widths 1 and 4. Under a pool, runs register with
// the collectors in completion order (fig02), and flt-loss's runs differ
// only in their fault schedule, so the export order must come from labels
// that tell every point apart. The wide sweep is repeated because a
// scheduling-dependent order shows up only on some interleavings.
func TestExportsIdenticalAtAnyWidth(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, id := range []string{"fig02", "flt-loss"} {
		f, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			export := func(workers int) (spans, telem string) {
				col := trace.NewCollector(1)
				col.KeepEvents(0)
				tel := telemetry.NewCollector(sim.Second)
				f.Run(Options{Quick: true, Seed: 1, tinyRuns: true, Pool: runner.New(workers), Trace: col, Telemetry: tel})
				var tb, mb strings.Builder
				if err := col.WriteJSONL(&tb); err != nil {
					t.Fatal(err)
				}
				if err := tel.WriteJSONL(&mb); err != nil {
					t.Fatal(err)
				}
				return tb.String(), mb.String()
			}
			spans1, telem1 := export(1)
			if spans1 == "" || telem1 == "" {
				t.Fatal("empty export")
			}
			for rep := 0; rep < 3; rep++ {
				spans4, telem4 := export(4)
				if spans4 != spans1 {
					t.Fatalf("trace JSONL at width 4 differs from width 1 (repeat %d)", rep)
				}
				if telem4 != telem1 {
					t.Fatalf("telemetry JSONL at width 4 differs from width 1 (repeat %d)", rep)
				}
			}
		})
	}
}

// lineRecorder records every Write it receives, so tests can assert that
// concurrent progress logging reaches the sink in whole lines.
type lineRecorder struct {
	mu     sync.Mutex
	writes []string
}

func (r *lineRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes = append(r.writes, string(p))
	return len(p), nil
}

// TestParallelLogWholeLines runs a parallel figure against a recording sink
// and asserts no progress line was ever split or merged mid-line: every
// Write is exactly one newline-terminated line.
func TestParallelLogWholeLines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rec := &lineRecorder{}
	o := Options{Quick: true, Seed: 1, tinyRuns: true, Pool: runner.New(4), Log: rec}
	Fig2(o)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.writes) == 0 {
		t.Fatal("no progress lines recorded")
	}
	for _, w := range rec.writes {
		if !strings.HasSuffix(w, "\n") || strings.Count(w, "\n") != 1 {
			t.Errorf("interleaved or partial log write: %q", w)
		}
		if !strings.HasPrefix(w, "fig02 ") {
			t.Errorf("unexpected log line: %q", w)
		}
	}
}
