// Package analyzers holds dcluevet's determinism and lifetime lint suite:
// nine analyzers that enforce, at the source level, the invariants the
// runtime tests (fingerprint determinism, golden figures, trace and
// telemetry non-perturbation, pool balance) can only observe after the
// fact. Each analyzer documents the invariant it guards;
// internal/lint/RULES.md is the human catalog.
package analyzers

import (
	"strings"

	"dclue/internal/lint/analysis"
)

// All returns the full suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Simtime,
		Simrand,
		Maporder,
		Goroutine,
		Floatsum,
		Tracenil,
		Telemnil,
		Poolown,
		Eventid,
	}
}

// Known returns the set of analyzer names, for validating //lint:allow
// directives.
func Known() map[string]bool {
	m := make(map[string]bool)
	for _, a := range All() {
		m[a.Name] = true
	}
	return m
}

// Sanctioned-package policy. Paths are import paths within this module;
// fixture packages (testdata/src/...) have bare paths and are never exempt,
// which is what the fixtures rely on.

// wallClockPkgs may read the wall clock: the CLIs (which time and stamp
// real runs) and cliutil (the single sanctioned wall-clock helper,
// cliutil.NowUTC). The lint tree itself is tooling, not model code.
func wallClockExempt(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "dclue/cmd/") ||
		pkgPath == "dclue/internal/cliutil" ||
		strings.HasPrefix(pkgPath, "dclue/internal/lint")
}

// globalRandExempt: internal/rng is the randomness root; every other
// package must derive streams from it.
func globalRandExempt(pkgPath string) bool {
	return pkgPath == "dclue/internal/rng" ||
		strings.HasPrefix(pkgPath, "dclue/internal/lint")
}

// concurrencyExempt: internal/runner owns the work-stealing sweep pool and
// internal/farm owns the multi-process sweep coordinator
// (goroutine-per-worker dispatch); all other code, the coroutine kernel in
// internal/sim included, must be single-threaded from the kernel's point of
// view.
func concurrencyExempt(pkgPath string) bool {
	return pkgPath == "dclue/internal/runner" ||
		pkgPath == "dclue/internal/farm" ||
		strings.HasPrefix(pkgPath, "dclue/internal/lint")
}

// continuationOnly lists the hot-path packages rebuilt as continuation
// (callback) actors: they run at per-packet/per-segment event rates where
// every sim.Proc step costs a coroutine switch on top of the callback
// dispatch, so reintroducing Proc or Mailbox there would silently undo the
// kernel speedup. The bare "continuation" path is the lint fixture standing in for
// a real hot-path package (fixture packages have bare import paths).
func continuationOnly(pkgPath string) bool {
	return pkgPath == "dclue/internal/netsim" ||
		pkgPath == "continuation"
}
