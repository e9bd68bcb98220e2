// Command simbench is the simulator's benchmark. It runs one workload for
// a fixed host-time budget, checks that every simulated point is correct,
// and prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) with a final JSON line. See README.md for the workloads and
// metrics; run.sh builds and runs it from the repository root.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dclue/internal/rng"
)

// DefaultSeed is the seed the benchmark's figures are quoted at. README.md
// names the held-out seed a claim must also hold on.
const DefaultSeed = 1

// childTimeout bounds one repetition so a wedged child cannot hold the
// benchmark past its exit deadline.
const childTimeout = 150 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	spansDir string
	tiny     bool
}

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: tpcc-scale, xtraffic-obs or capacity-router")
	flag.Uint64Var(&cfg.seed, "seed", DefaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "host seconds to measure for")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "directory for the traced run's spans (JSON lines); empty keeps them in memory only")
	flag.Parse()
	if !slices.Contains(workloadNames, cfg.workload) || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "simbench: need -workload in %v, -trace 0|1 and -seconds > 0\n", workloadNames)
		os.Exit(2)
	}
	cfg.traced = traceFlag == 1
	os.Exit(bench(os.Stdout, cfg))
}

// bench runs the repetitions, checks them and prints the report. It
// returns the process exit code.
func bench(w io.Writer, cfg config) int {
	start := time.Now()
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)

	// Untraced repetitions fill the budget; the traced run, when asked for,
	// is one more repetition that the budget reserves room for. The first
	// two repetitions (or the first and the traced one) share the seed so
	// the fingerprint check sees a repeat; later ones draw fresh inputs
	// from it, so the medians average over the inputs the seed generates
	// rather than over one draw.
	minReps := 2
	if cfg.traced {
		minReps = 1
	}
	var reps []repResult
	var repErrs []string
	for len(reps) < 100 {
		t0 := time.Now()
		r, err := spawn(request{Workload: cfg.workload, Seed: repSeed(cfg.seed, len(reps)), Tiny: cfg.tiny})
		if err != nil {
			repErrs = append(repErrs, err.Error())
			break
		}
		reps = append(reps, r)
		printRep(w, "untraced", len(reps), r)
		next := time.Since(t0).Seconds()
		reserve := 0.0
		if cfg.traced {
			reserve = 1.5*next + 3
		}
		if len(reps) >= minReps && time.Since(start).Seconds()+next+reserve > cfg.seconds {
			break
		}
	}
	var traced *repResult
	if cfg.traced && len(repErrs) == 0 {
		r, err := spawn(request{Workload: cfg.workload, Seed: cfg.seed, Traced: true, Tiny: cfg.tiny})
		if err != nil {
			repErrs = append(repErrs, err.Error())
		} else {
			traced = &r
			printRep(w, "traced", 1, r)
		}
	}

	v := check(reps, traced, repErrs)
	for _, p := range v.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	failRatio := float64(v.failed) / float64(max(v.attempted, 1))
	fmt.Fprintf(w, "check attempted=%d failed=%d fail_ratio=%g\n", v.attempted, v.failed, failRatio)

	e2e := endToEnd(reps)
	var metrics []metric
	if len(reps) > 0 {
		metrics = append(e2e, metric{"fail_ratio", failRatio, "ratio"})
	}
	if cfg.traced && traced != nil {
		layers := perLayer(cfg.workload, reps, *traced)
		metrics = append(metrics, layers...)
		if cfg.spansDir != "" {
			if err := writeSpans(cfg, traced.Traced.Spans); err != nil {
				fmt.Fprintln(w, "FAIL", err)
				v.correct = false
			}
		}
	}
	for _, m := range metrics {
		fmt.Fprintf(w, "metric %s = %.6g %s\n", m.name, m.value, m.unit)
	}

	// The JSON line carries the end-to-end metrics of the untraced runs, or
	// with -trace 1 the per-layer metrics.
	names := endToEndNames
	if cfg.traced {
		names = perLayerNames
	}
	out := map[string]any{}
	for _, m := range metrics {
		if slices.Contains(names, m.name) {
			out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	if len(out) != len(names) {
		v.correct = false
		fmt.Fprintf(w, "FAIL %d of %d metrics measured\n", len(out), len(names))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   v.correct,
		"attempted": max(v.attempted, 1),
		"failed":    v.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !v.correct {
		return 1
	}
	return 0
}

// repSeed returns the seed of the i-th untraced repetition: the workload
// seed for the first two, then seeds derived from it.
func repSeed(seed uint64, i int) uint64 {
	if i < 2 {
		return seed
	}
	return rng.Derive(seed, fmt.Sprintf("simbench/rep%d", i)).Uint64()
}

// spawn runs one repetition in a child process and reads back its result.
func spawn(req request) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(body))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("repetition (traced=%v) failed: %w", req.Traced, err)
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return repResult{}, fmt.Errorf("repetition (traced=%v): bad result: %w", req.Traced, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		r.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return r, nil
}

// printRep prints one repetition's timings and fingerprints.
func printRep(w io.Writer, kind string, n int, r repResult) {
	fmt.Fprintf(w, "rep %s #%d seed=%d wall_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f\n", kind, n, r.Seed, r.WallS, r.CPUS, r.PeakRSSMB)
	for _, p := range r.Points {
		fmt.Fprintf(w, "  point %-10s fingerprint=%s commits=%d setup_s=%.4f run_s=%.4f events=%d",
			p.Label, p.Fingerprint, p.Commits, p.SetupS, p.RunS, p.Events)
		if p.Err != "" {
			fmt.Fprintf(w, " err=%q", p.Err)
		}
		fmt.Fprintln(w)
	}
}

// writeSpans writes the traced run's spans, one JSON object a line.
func writeSpans(cfg config, spans []span) error {
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
