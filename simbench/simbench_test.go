package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(m.Run())
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runTiny runs the benchmark on a workload at self-test sizing and parses
// its final JSON line.
func runTiny(t *testing.T, workload string, traced bool) result {
	t.Helper()
	var out bytes.Buffer
	code := bench(&out, config{workload: workload, seed: DefaultSeed, seconds: 1, traced: traced, tiny: true})
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s traced=%v: last line is not the result: %v\n%s", workload, traced, err, out.String())
	}
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 2 {
		t.Fatalf("%s traced=%v: exit %d, result %+v\n%s", workload, traced, code, r, out.String())
	}
	return r
}

// TestEveryMetricEmitted runs every workload in both modes and checks that
// the result carries exactly the metrics BENCHMARK.json declares, with
// their units; that the profile buckets add up to the sampled total; and
// that the runner, trace and telemetry layers show work only on the
// workloads that exercise them.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := runTiny(t, w, traced)
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
			if !traced {
				continue
			}
			sum := 0.0
			for _, b := range profileBuckets {
				name := b + ".self_s"
				if strings.HasPrefix(b, "rt.") {
					name = b + "_s"
				}
				sum += r.Metrics[name].Value
			}
			if total := r.Metrics["profile.total_s"].Value; total <= 0 || math.Abs(sum-total) > 1e-6*total {
				t.Errorf("%s: profile buckets sum to %g, total %g", w, sum, total)
			}
			for prefix, owner := range map[string]string{
				"runner.":            wCapacityRouter,
				"trace.spans":        wXtrafficObs,
				"telemetry.gcs_msgs": wXtrafficObs,
			} {
				for name, m := range r.Metrics {
					if strings.HasPrefix(name, prefix) && (m.Value != 0) != (w == owner) {
						t.Errorf("%s: %s = %g; want non-zero only on %s", w, name, m.Value, owner)
					}
				}
			}
		}
	}
}

// TestCheckRejects feeds the correctness check an injected fingerprint
// mismatch, an injected run error and a failed repetition.
func TestCheckRejects(t *testing.T) {
	good := func() repResult {
		return repResult{Points: []pointResult{
			{Label: "nodes=2", Fingerprint: "aa", Commits: 10},
			{Label: "nodes=4", Fingerprint: "bb", Commits: 20},
		}}
	}
	if v := check([]repResult{good(), good()}, nil, nil); !v.correct || v.attempted != 4 {
		t.Fatalf("clean repetitions rejected: %+v", v)
	}

	mismatch := good()
	mismatch.Points[1].Fingerprint = "cc"
	if v := check([]repResult{good()}, &mismatch, nil); v.correct || v.failed != 1 {
		t.Errorf("traced fingerprint mismatch accepted: %+v", v)
	}
	if v := check([]repResult{good(), mismatch}, nil, nil); v.correct || v.failed != 1 {
		t.Errorf("repetition fingerprint mismatch accepted: %+v", v)
	}

	runErr := good()
	runErr.Points[0].Err = "sim: deadlock"
	if v := check([]repResult{runErr, good()}, nil, nil); v.correct || v.failed != 1 {
		t.Errorf("run error accepted: %+v", v)
	}

	idle := good()
	idle.Points[0].Commits = 0
	failing := good()
	failing.Points[1].Failures = 3
	if v := check([]repResult{idle, failing}, nil, nil); v.correct || v.failed != 2 {
		t.Errorf("idle or failing points accepted: %+v", v)
	}

	if v := check([]repResult{good()}, nil, []string{"repetition failed: exit status 2"}); v.correct || v.failed != 1 {
		t.Errorf("failed repetition accepted: %+v", v)
	}
}

// TestClassify pins the profile bucket rules on representative stacks.
func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"dclue/internal/sim.(*Sim).heapPopRoot", "dclue/internal/sim.(*Sim).run", "runtime.goexit"}, "sim"},
		{[]string{"runtime.mapaccess2", "dclue/internal/db.(*BufferCache).Lookup", "runtime.goexit"}, "db"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "runtime.chansend1",
			"dclue/internal/sim.(*Proc).wake"}, bucketSched},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "dclue/internal/tcp.newConn"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, bucketGC},
		{[]string{"math.Exp", "dclue/internal/disk.(*Drive).service"}, "storage"},
		{[]string{"dclue/internal/core.(*Cluster).collect", "main.main"}, bucketOther},
		{[]string{"main.(*kernelTracer).Event", "dclue/internal/sim.(*Sim).run"}, bucketOther},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
